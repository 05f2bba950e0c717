package engine

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// coldScans are long-range scans over XMark: unselective single paths.
var coldScans = []string{
	`//item/name`,
	`//item/mailbox/mail/date`,
	`//open_auction/bidder`,
	`/site/people/person/name`,
	`/site/open_auctions/open_auction/time`,
}

// coldFile builds a file-backed XMark database with ROOTPATHS and
// DATAPATHS and closes it, returning its path.
func coldFile(t *testing.T, itemsPerRegion int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cold.db")
	db, _ := xmarkItems(t, itemsPerRegion, Config{Path: path, BufferPoolBytes: 8 << 20})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireStoreLoads fails unless db has read n stores from its node table.
func requireStoreLoads(t *testing.T, tag string, db *DB, n int64) {
	t.Helper()
	if got := db.storeLoads.Load(); got != n {
		t.Fatalf("%s: %d stores loaded, want %d", tag, got, n)
	}
}

// TestReopenAnswersWithoutStore: a file shaped like the disk-resident
// benchmark's — XMark, ROOTPATHS and DATAPATHS, a 1.5 MB pool — reopens
// and answers every XMark workload text and five long scans under Auto and
// under pinned ROOTPATHS and DATAPATHS exactly as before the close, counts
// its nodes, checkpoints, backs up and closes, all without building the
// XML store. The first Oracle read then loads it, once.
func TestReopenAnswersWithoutStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cold.db")
	cfg := Config{Path: path, BufferPoolBytes: 1536 << 10}
	db, _ := xmarkItems(t, 20, cfg)
	var pats []*xpath.Pattern
	for _, q := range workload.XMark() {
		pats = append(pats, xpath.MustParse(q.XPath))
	}
	for _, q := range coldScans {
		pats = append(pats, xpath.MustParse(q))
	}
	reads := []ReadOpts{{Planner: Auto}, {Strategy: plan.RootPathsPlan}, {Strategy: plan.DataPathsPlan}}
	answers := func(tag string, db *DB) [][]int64 {
		t.Helper()
		var out [][]int64
		for _, pat := range pats {
			for _, opts := range reads {
				res, err := db.Read(pat, opts)
				if err != nil {
					t.Fatalf("%s: %s (%v): %v", tag, pat, opts, err)
				}
				out = append(out, res.IDs)
			}
		}
		return out
	}
	want, wantNodes := answers("built", db), db.NodeCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := answers("reopened", re)
	for i := range want {
		if !equalIDs(got[i], want[i]) {
			t.Fatalf("%s (%v): %v after reopen, %v before", pats[i/len(reads)], reads[i%len(reads)], got[i], want[i])
		}
	}
	if n := re.NodeCount(); n != wantNodes {
		t.Fatalf("NodeCount %d after reopen, %d before", n, wantNodes)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Backup(filepath.Join(t.TempDir(), "backup.db")); err != nil {
		t.Fatal(err)
	}
	requireStoreLoads(t, "planned reads", re, 0)
	if re.CurrentSnapshot().Store() != nil {
		t.Fatal("the reopened snapshot holds a store")
	}
	for i, pat := range pats {
		res, err := re.Read(pat, ReadOpts{Planner: Oracle})
		if err != nil || !equalIDs(res.IDs, want[i*len(reads)]) {
			t.Fatalf("%s via Oracle: %v %v, planned %v", pat, res.IDs, err, want[i*len(reads)])
		}
	}
	requireStoreLoads(t, "oracle reads", re, 1)
}

// TestStoreLoadsOnce: many goroutines' first Oracle reads and ViewNodes
// calls on a freshly opened database share one load of the store.
func TestStoreLoadsOnce(t *testing.T) {
	path := coldFile(t, 4)
	db, err := Open(Config{Path: path, BufferPoolBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pat := xpath.MustParse(`//item/name`)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		seen  = map[*xmldb.Store]bool{}
		count = map[int]bool{}
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				res, err := db.Read(pat, ReadOpts{Planner: Oracle})
				if err != nil || len(res.IDs) == 0 {
					t.Errorf("oracle: %v %v", res.IDs, err)
				}
				return
			}
			err := db.ViewNodes(func(store *xmldb.Store) {
				mu.Lock()
				seen[store], count[store.NodeCount()] = true, true
				mu.Unlock()
			})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	requireStoreLoads(t, "concurrent first needs", db, 1)
	if len(seen) != 1 || len(count) != 1 {
		t.Fatalf("ViewNodes saw %d stores, %d node counts", len(seen), len(count))
	}
}

// TestAsOfOracleLoadsRetiredTable: a retained snapshot that never loaded
// its store still answers an AS OF Oracle read with its own version after
// later commits have copied its node table's pages away: the retained pin
// keeps the retired pages from being freed.
func TestAsOfOracleLoadsRetiredTable(t *testing.T) {
	path := coldFile(t, 4)
	db, err := Open(Config{Path: path, BufferPoolBytes: 4 << 20, RetainSnapshots: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pat := xpath.MustParse(`//item`)
	before, err := pinnedIDs(db, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	// A commit that changes no data publishes a successor sharing the
	// node table, as Checkpoint does for a store not yet committed; the
	// opened snapshot is retained without ever loading its store.
	old := db.CurrentSnapshot()
	db.writeMu.Lock()
	if err := db.commitPublish(old.clone(), nil, nil, false); err != nil {
		t.Fatal(err)
	}
	oldPages := map[storage.PageID]bool{}
	if err := old.env.Nodes.WalkPages(func(id storage.PageID) error { oldPages[id] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	root := db.Store().Docs[0].Root.ID
	for i := 0; i < 20; i++ {
		if err := db.DeleteSubtree(before[i]); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertSubtree(root, listing(i)); err != nil {
			t.Fatal(err)
		}
	}
	retired := 0
	db.writeMu.Lock()
	for _, b := range db.retired {
		for _, id := range b.pages {
			if oldPages[id] {
				retired++
			}
		}
	}
	db.writeMu.Unlock()
	if retired == 0 {
		t.Fatal("no page of the retained snapshot's node table was retired")
	}
	if old.Store() != nil {
		t.Fatal("the retained snapshot loaded its store")
	}
	res, err := db.ReadAsOf(old.seq, pat, ReadOpts{Planner: Oracle})
	if err != nil || !equalIDs(res.IDs, before) {
		t.Fatalf("AS OF %d via Oracle: %d ids (%v), %d before the commits", old.seq, len(res.IDs), err, len(before))
	}
	now, err := db.Read(pat, ReadOpts{Planner: Oracle})
	if err != nil || len(now.IDs) != len(before)-20 {
		t.Fatalf("the current version has %d items (%v), want %d", len(now.IDs), err, len(before)-20)
	}
}

// TestNodeTableFlipAfterOpen: a sticky bit flip on the node table's pages
// after Open fails the load of the store — the Oracle read and the next
// Insert report ErrCorruptPage, and no partial store is kept — while
// planned reads, served by the pool, keep answering. Once the fault is
// gone the store loads.
func TestNodeTableFlipAfterOpen(t *testing.T) {
	path := coldFile(t, 4)
	inj := storage.NewFaultInjector(1, storage.FaultSpec{Kind: storage.FaultBitFlip, Sticky: true})
	inj.Disarm()
	db, err := Open(Config{Path: path, BufferPoolBytes: 16 << 20, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pat := xpath.MustParse(`//item[quantity]/name`)
	want, err := db.Read(pat, ReadOpts{Planner: Auto})
	if err != nil {
		t.Fatal(err)
	}
	db.SetFaultsArmed(true)
	if _, err := db.Read(pat, ReadOpts{Planner: Oracle}); !errors.Is(err, storage.ErrCorruptPage) || !errors.Is(err, index.ErrCorruptCatalog) {
		t.Fatalf("Oracle read over a flipped node table: %v, want ErrCorruptPage", err)
	}
	if err := db.InsertSubtree(want.IDs[0], xmldb.Text("note", "x")); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("Insert over a flipped node table: %v, want ErrCorruptPage", err)
	}
	if err := db.ViewNodes(func(*xmldb.Store) { t.Fatal("ViewNodes called fn without a store") }); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("ViewNodes over a flipped node table: %v, want ErrCorruptPage", err)
	}
	if db.CurrentSnapshot().Store() != nil {
		t.Fatal("a failed load left a store behind")
	}
	got, err := db.Read(pat, ReadOpts{Planner: Auto})
	if err != nil || !equalIDs(got.IDs, want.IDs) {
		t.Fatalf("planned read beside the fault: %v %v, want %v", got.IDs, err, want.IDs)
	}
	if inj.TotalInjected() == 0 {
		t.Fatal("the flip never fired")
	}
	db.SetFaultsArmed(false)
	res, err := db.Read(pat, ReadOpts{Planner: Oracle})
	if err != nil || !equalIDs(res.IDs, want.IDs) {
		t.Fatalf("Oracle read after the fault: %v %v, want %v", res.IDs, err, want.IDs)
	}
	requireStoreLoads(t, "after the fault", db, 1)
}

// TestNodeCountFromStatistics: a snapshot that has not loaded its store
// counts its nodes from its statistics, and agrees with the store after
// inserts and deletes, close and reopen.
func TestNodeCountFromStatistics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "count.db")
	cfg := Config{Path: path, BufferPoolBytes: 4 << 20}
	db, items := xmarkItems(t, 4, cfg)
	for i := 0; i < 6; i++ {
		if err := db.InsertSubtree(items[i], listing(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteSubtree(items[7]); err != nil {
		t.Fatal(err)
	}
	if got, want := db.NodeCount(), db.Store().NodeCount(); got != want {
		t.Fatalf("NodeCount %d, store %d", got, want)
	}
	want := db.Store().NodeCount()
	if n := db.CurrentSnapshot().Env().Stats.NodeCount(); n != int64(want) {
		t.Fatalf("statistics count %d nodes, store %d", n, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.NodeCount(); n != want {
		t.Fatalf("NodeCount %d after reopen, %d before", n, want)
	}
	requireStoreLoads(t, "NodeCount", re, 0)
	if n := re.Store().NodeCount(); n != want {
		t.Fatalf("the reopened store holds %d nodes, want %d", n, want)
	}
}

// requireStreamedStatsEqual reopens the database at path and checks the
// statistics Open streamed from its node table against stats.Collect of
// the store then loaded from it.
func requireStreamedStatsEqual(t *testing.T, tag, path string) {
	t.Helper()
	re, err := Open(Config{Path: path, BufferPoolBytes: 4 << 20})
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	defer re.Close()
	streamed := re.CurrentSnapshot().Env().Stats
	requireStoreLoads(t, tag+": Open", re, 0)
	requireStatsEqual(t, tag, re.dict, streamed, stats.Collect(re.Store(), re.dict), statsPatterns(re.dict))
}
