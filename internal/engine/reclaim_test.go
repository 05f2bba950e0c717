package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/storage"
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
// live-set size with periodic checkpoints, and verifies the storage
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
		if err := db.Checkpoint(); err != nil { // its sync point trims the file
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

// TestRebuildReusesFreedPages: rebuilding ROOTPATHS and DATAPATHS over
// and over levels off at two builds' worth of pages. Each build frees the
// structures the build before it replaced (no snapshot reads them any
// more), and bulk loads and the catalog draw their pages from the free
// list before they grow the file. The level is reached one build late, by
// one page: the second build's sync point lists only pages the superblock
// before it still reaches, so the list's trunk comes from the tail.
func TestRebuildReusesFreedPages(t *testing.T) {
	db, err := Open(Config{Path: filepath.Join(t.TempDir(), "rebuild.db"), BufferPoolBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20})); err != nil {
		t.Fatal(err)
	}
	var pages []int
	for i := 0; i < 6; i++ {
		if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, db.fdisk.NumPages())
	}
	t.Logf("pages after each build: %v", pages)
	if pages[5] != pages[2] || pages[2] > pages[1]+1 {
		t.Fatalf("pages after each build %v: the sixth build ends at %d, the third at %d, the second at %d", pages, pages[5], pages[2], pages[1])
	}
	// The checkpoint's commit frees what the last build replaced.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertPagesAccounted(t, db)
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
	assertPagesAccounted(t, rec)
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
		assertPagesAccounted(t, rec)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestInMemoryBackupWithPinnedReaders backs up an in-memory database
// whose small pool's frames are the in-memory file's own page bytes, while
// readers keep pages pinned across the sync points that a writer's
// commits and Checkpoints run, and pages are evicted, fetched again and
// mutated in place. Under -race a sync point must not write the bytes a
// reader reads (it rewrites a view's trailer only); no read may fail its
// checksum; and every backup opens and answers like the naive oracle on
// itself.
func TestInMemoryBackupWithPinnedReaders(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{BufferPoolBytes: 16 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 4; i++ {
		db.AddDocument(genDoc(rng, 150))
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	rootID := db.Store().Docs[0].Root.ID
	baselineNodes := db.NodeCount()
	var pats []*xpath.Pattern
	for i := 0; i < 4; i++ {
		pats = append(pats, xpath.MustParse(genQueryFor(rng, db.Store().Docs[0])))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(strat int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pinnedIDs(db, pats[i%len(pats)], diffStrategies[strat%2]); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(42))
		var live []int64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// A transaction of several statements: the pages its first
			// ones write may be evicted, fetched again and mutated in place
			// by the later ones.
			tx := db.Begin()
			for j := 0; j < 3; j++ {
				sub := genDoc(wrng, 5).Root
				if err := tx.Insert(rootID, sub); err != nil {
					t.Errorf("writer insert: %v", err)
					return
				}
				live = append(live, sub.ID)
			}
			for len(live) > 20 {
				if err := tx.Delete(live[0]); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
				live = live[1:]
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("writer commit: %v", err)
				return
			}
			commits.Add(1)
			if i%2 == 1 {
				if err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()

	for i := 0; i < 3; i++ {
		for commits.Load() < int64(10*i) && !t.Failed() {
			time.Sleep(time.Millisecond)
		}
		dst := filepath.Join(dir, fmt.Sprintf("backup%d.db", i))
		if err := db.Backup(dst); err != nil {
			t.Fatalf("backup %d: %v", i, err)
		}
		rec, err := Open(Config{Path: dst, BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatalf("open backup %d: %v", i, err)
		}
		if got := rec.NodeCount(); got < baselineNodes {
			t.Fatalf("backup %d lost pre-backup content: %d nodes < baseline %d", i, got, baselineNodes)
		}
		for _, pat := range pats {
			want := rec.MatchNaive(pat)
			for _, s := range diffStrategies[:2] {
				got, err := pinnedIDs(rec, pat, s)
				if err != nil || !equalIDs(got, want) {
					t.Fatalf("backup %d %v via %v: got %v, %v; naive %v", i, pat, s, got, err, want)
				}
			}
		}
		assertPagesAccounted(t, rec)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := db.DeviceStats(); st.ChecksumFailures != 0 {
		t.Fatalf("%d checksum failures", st.ChecksumFailures)
	}
	if st := db.PoolStats(); st.PageReads == 0 || st.PageWrites == 0 {
		t.Fatalf("pool stats %+v: the pool never missed or wrote home", st)
	}
}
