package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
)

// devicePaths returns the two ways to open a database: in memory and in a
// file under a fresh temporary directory.
func devicePaths(t *testing.T) []string {
	return []string{"", filepath.Join(t.TempDir(), "twig.db")}
}

// TestBuildLeavesWALEmpty: Build's commit is a sync point, which writes
// every page of what it builds home and empties the log, in memory and on
// disk alike.
func TestBuildLeavesWALEmpty(t *testing.T) {
	for _, path := range devicePaths(t) {
		db, err := Open(Config{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddDocument(genDoc(rand.New(rand.NewSource(3)), 80)); err != nil {
			t.Fatal(err)
		}
		if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
			t.Fatal(err)
		}
		if st := db.DeviceStats(); st.WALBytes != 0 || st.Checkpoints < 1 {
			t.Fatalf("path %q: after Build WALBytes=%d Checkpoints=%d, want 0 and >= 1", path, st.WALBytes, st.Checkpoints)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDroppedDatabasesLeaveNoGoroutines: a commit past CheckpointWALBytes
// is a sync point run by the committing writer itself, so databases
// dropped without Close — file-backed or in memory — leave no goroutine
// behind.
func TestDroppedDatabasesLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		path := ""
		if i%2 == 0 {
			path = filepath.Join(dir, fmt.Sprintf("db%d", i))
		}
		db, err := Open(Config{Path: path, CheckpointWALBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		doc := genDoc(rng, 40)
		if err := db.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
		if err := db.Build(index.KindRootPaths); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if err := db.InsertSubtree(doc.Root.ID, genDoc(rng, 4).Root); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive four dropped databases (baseline %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseWhileCommitsCrossBudget: Close runs while writers commit past
// CheckpointWALBytes, each commit a sync point. Close's own sync point
// serialises with theirs under the writer lock (make race checks it); a
// commit after Close fails, and every commit that succeeded is in the file
// on reopen.
func TestCloseWhileCommitsCrossBudget(t *testing.T) {
	for _, path := range devicePaths(t) {
		db, err := Open(Config{Path: path, CheckpointWALBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		doc := genDoc(rand.New(rand.NewSource(5)), 20)
		if err := db.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
		if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
			t.Fatal(err)
		}
		root, before := doc.Root.ID, len(db.Store().NodeByID(doc.Root.ID).Children)
		var committed atomic.Int64
		var closing atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 25; i++ {
					if err := db.InsertSubtree(root, genDoc(rng, 4).Root); err != nil {
						if !closing.Load() {
							t.Errorf("commit before Close: %v", err)
						}
						return
					}
					committed.Add(1)
				}
			}(int64(w))
		}
		for deadline := time.Now().Add(10 * time.Second); committed.Load() < 8 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		closing.Store(true)
		if err := db.Close(); err != nil {
			t.Errorf("path %q: Close under concurrent commits: %v", path, err)
		}
		wg.Wait()
		if err := db.InsertSubtree(root, genDoc(rand.New(rand.NewSource(6)), 4).Root); err == nil {
			t.Errorf("path %q: a commit after Close succeeded", path)
		}
		if path == "" {
			continue
		}
		re, err := Open(Config{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(re.Store().NodeByID(root).Children) - before; int64(got) < committed.Load() {
			t.Errorf("reopened with %d inserts, %d committed", got, committed.Load())
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
