package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// dbFileSize returns the current length of the database file.
func dbFileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestChurnSteadyState drives randomized insert/delete churn at a fixed
// live-set size with periodic checkpoint+compact, and verifies the storage
// reaches a steady state: the file size plateaus (each post-compaction
// size stays within 1.5x of the warmed-up baseline) instead of growing
// without bound, and the allocator demonstrably recycles freed pages.
func TestChurnSteadyState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(17))
	if err := db.AddDocument(genDoc(rng, 100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	rootID := db.Store().Docs[0].Root.ID

	const (
		liveSet = 40
		rounds  = 10
		steps   = 20
	)
	var live []int64
	sizes := make([]int64, 0, rounds)
	for round := 0; round < rounds; round++ {
		for step := 0; step < steps; step++ {
			sub := genDoc(rng, 6).Root
			if err := db.InsertSubtree(rootID, sub); err != nil {
				t.Fatal(err)
			}
			live = append(live, sub.ID)
			if len(live) > liveSet {
				if err := db.DeleteSubtree(live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.fdisk.Compact(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, dbFileSize(t, path))
	}

	// Warm-up: the first rounds grow the live set to its cap and seed the
	// free list. The baseline is the post-compaction size once churn is in
	// steady state; everything after must stay within the 1.5x bound.
	baseline := sizes[3]
	for i := 4; i < len(sizes); i++ {
		if sizes[i] > baseline+baseline/2 {
			t.Fatalf("file size did not plateau: round %d size %d > 1.5x baseline %d (all: %v)",
				i, sizes[i], baseline, sizes)
		}
	}
	st := db.DeviceStats()
	if st.PagesFreed == 0 {
		t.Fatal("churn freed no pages — delete-driven reclamation is not wired")
	}
	if st.PagesReused == 0 {
		t.Fatal("churn reused no pages — the allocator is not consuming the free list")
	}
	// The steady state must still answer queries correctly.
	q := genQueryFor(rng, db.Store().Docs[0])
	pat := xpath.MustParse(q)
	want := db.MatchNaive(pat)
	for _, s := range diffStrategies[:2] {
		got, err := pinnedIDs(db, pat, s)
		if err != nil {
			t.Fatalf("%v after churn: %v", s, err)
		}
		if !equalIDs(got, want) {
			t.Fatalf("%v after churn: got %v want %v", s, got, want)
		}
	}
}

// TestBackupRestore takes an online backup of a quiescent database with
// the full index family built and verifies the restored copy is logically
// identical: same store, same answers from every strategy.
func TestBackupRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(23))
	db.AddDocument(genDoc(rng, 80))
	db.AddDocument(genDoc(rng, 40))
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "backup.db")
	if err := db.Backup(dst); err != nil {
		t.Fatal(err)
	}
	// The backup is standalone: no WAL rides along.
	if _, err := os.Stat(dst + storage.WALSuffix); !os.IsNotExist(err) {
		t.Fatalf("backup left a WAL beside it (stat err: %v)", err)
	}

	rec, err := Open(Config{Path: dst, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatalf("open backup: %v", err)
	}
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = genQueryFor(rng, db.Store().Docs[0])
	}
	verifyRecovered(t, "backup", rec, db, queries)
	// The restored copy accepts new work.
	parents, _ := liveNodeIDs(rec)
	if err := rec.InsertSubtree(parents[rng.Intn(len(parents))], genDoc(rng, 6).Root); err != nil {
		t.Fatalf("insert into restored backup: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackupUnderConcurrentWriters backs up while a writer churns
// insert/delete commits. Each backup must be snapshot-consistent: whatever
// version it captured, the restored store agrees with the naive oracle run
// on itself, and content committed before the backup began is present.
func TestBackupUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(31))
	db.AddDocument(genDoc(rng, 60))
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	rootID := db.Store().Docs[0].Root.ID
	baselineNodes := db.NodeCount()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(32))
		var live []int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub := genDoc(wrng, 5).Root
			if err := db.InsertSubtree(rootID, sub); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
			live = append(live, sub.ID)
			if len(live) > 20 {
				if err := db.DeleteSubtree(live[0]); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
				live = live[1:]
			}
		}
	}()

	for i := 0; i < 3; i++ {
		dst := filepath.Join(dir, fmt.Sprintf("backup%d.db", i))
		if err := db.Backup(dst); err != nil {
			t.Fatalf("backup %d: %v", i, err)
		}
		rec, err := Open(Config{Path: dst, BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatalf("open backup %d: %v", i, err)
		}
		// Snapshot consistency: the restored version answers like the naive
		// oracle over its own store, through both incremental indices.
		if got := rec.NodeCount(); got < baselineNodes {
			t.Fatalf("backup %d lost pre-backup content: %d nodes < baseline %d", i, got, baselineNodes)
		}
		for j := 0; j < 3; j++ {
			q := genQueryFor(rng, rec.Store().Docs[0])
			pat := xpath.MustParse(q)
			want := rec.MatchNaive(pat)
			for _, s := range diffStrategies[:2] {
				got, err := pinnedIDs(rec, pat, s)
				if err != nil {
					t.Fatalf("backup %d %q via %v: %v", i, q, s, err)
				}
				if !equalIDs(got, want) {
					t.Fatalf("backup %d %q via %v: got %v, naive %v (snapshot torn)", i, q, s, got, want)
				}
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrashDuringCompact captures crash images at the free-splice boundary
// (CkptFreeSpliced: the rebuilt chain and shrunken metadata are committed
// and fsynced, the physical truncate not yet issued) across repeated
// checkpoint+compact cycles under delete churn, and verifies every image
// recovers to the live database's logical state — compaction moves and
// trims pages, never meaning.
func TestCrashDuringCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(41))
	db.AddDocument(genDoc(rng, 80))
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	rootID := db.Store().Docs[0].Root.ID

	type image struct {
		db  []byte
		wal []byte
	}
	var images []image
	db.fdisk.SetCheckpointHook(func(stage storage.CheckpointStage) {
		if stage != storage.CkptFreeSpliced {
			return
		}
		d, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("splice capture: %v", err)
			return
		}
		w, err := os.ReadFile(path + storage.WALSuffix)
		if err != nil {
			t.Errorf("splice capture: %v", err)
			return
		}
		images = append(images, image{db: d, wal: w})
	})

	dumpStore := func(d *DB) string {
		out := ""
		for _, doc := range d.Store().Docs {
			out += xmldb.Dump(doc.Root)
		}
		return out
	}

	// Churn with a shrinking live set so frees outnumber allocations, and
	// compact every round: the ascending chain rebuild pulls live pages
	// toward the front, so later rounds trim free tails. Each capture is
	// paired with the live store's rendering at that moment — later rounds
	// keep mutating, so the live database cannot serve as the oracle.
	var expect []string
	var live []int64
	totalTrimmed := 0
	for round := 0; round < 8; round++ {
		for step := 0; step < 15; step++ {
			sub := genDoc(rng, 6).Root
			if err := db.InsertSubtree(rootID, sub); err != nil {
				t.Fatal(err)
			}
			live = append(live, sub.ID)
		}
		for len(live) > 10 {
			if err := db.DeleteSubtree(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		trimmed, err := db.fdisk.Compact()
		if err != nil {
			t.Fatal(err)
		}
		totalTrimmed += trimmed
		for len(expect) < len(images) {
			expect = append(expect, dumpStore(db))
		}
	}
	db.fdisk.SetCheckpointHook(nil)
	if totalTrimmed == 0 || len(images) == 0 {
		t.Fatalf("no compaction trimmed anything (trimmed=%d, captures=%d); the kill-point is not exercised",
			totalTrimmed, len(images))
	}

	for i, img := range images {
		crashPath := filepath.Join(dir, fmt.Sprintf("splice%d.db", i))
		if err := os.WriteFile(crashPath, img.db, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashPath+storage.WALSuffix, img.wal, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(Config{Path: crashPath, BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatalf("splice capture %d: reopen: %v", i, err)
		}
		if st := rec.DeviceStats(); st.FreeListResets != 0 {
			t.Fatalf("splice capture %d: recovery abandoned the free chain (%+v)", i, st)
		}
		if got := dumpStore(rec); got != expect[i] {
			t.Fatalf("splice capture %d: recovered store diverges from state at capture time", i)
		}
		// The recovered version must answer like the naive oracle over its
		// own store, through both incremental indices.
		for j := 0; j < 2; j++ {
			q := genQueryFor(rng, rec.Store().Docs[0])
			pat := xpath.MustParse(q)
			want := rec.MatchNaive(pat)
			for _, s := range diffStrategies[:2] {
				got, err := pinnedIDs(rec, pat, s)
				if err != nil {
					t.Fatalf("splice capture %d %q via %v: %v", i, q, s, err)
				}
				if !equalIDs(got, want) {
					t.Fatalf("splice capture %d %q via %v: got %v, naive %v", i, q, s, got, want)
				}
			}
		}
		parents, _ := liveNodeIDs(rec)
		if err := rec.InsertSubtree(parents[rng.Intn(len(parents))], genDoc(rng, 5).Root); err != nil {
			t.Fatalf("splice capture %d: insert after recovery: %v", i, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
