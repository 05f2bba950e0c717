package twigdb_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	twigdb "repro"
)

// TestSnapshotConsistencyUnderChurn is the snapshot-isolation stress
// harness: continuous writers churn "marker pair" subtrees — every insert
// attaches <m><x>…</x><x>…</x></m>, two <x> leaves that enter and leave
// the database atomically — while reader goroutines hammer //m/x. The
// post-hoc oracle invariant: every query's result must contain an even
// number of <x> ids, because a snapshot either contains both halves of a
// pair or neither. A torn read (a query observing a half-applied subtree
// update) would surface as an odd count; a ghost id (a deleted node
// surviving in an IdList) or a lost insert surfaces in the final
// differential pass against the naive oracle, which walks the live tree.
// Run under -race in CI (make ci).
func TestSnapshotConsistencyUnderChurn(t *testing.T) {
	const (
		writers    = 4
		writerOps  = 60
		readRounds = 25
	)
	db := twigdb.MustOpen(&twigdb.Options{BufferPoolBytes: 8 << 20})
	zonesXML := "<root>"
	for z := 0; z < writers; z++ {
		zonesXML += fmt.Sprintf("<zone><title>stable</title><seq>z%d</seq></zone>", z)
	}
	zonesXML += "</root>"
	if err := db.LoadXMLString(zonesXML); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	zres, err := db.Query(`/root/zone`)
	if err != nil || zres.Count() != writers {
		t.Fatalf("zones: %v (%d)", err, zres.Count())
	}
	zoneIDs := zres.IDs

	statsBefore := db.QueryStats()
	var wg sync.WaitGroup
	errs := make(chan error, writers+8)
	var writesDone atomic.Int64

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			var live []int64
			for i := 0; i < writerOps; i++ {
				if len(live) > 2 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					if err := db.Delete(live[k]); err != nil {
						errs <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
					live = append(live[:k], live[k+1:]...)
				} else {
					frag := fmt.Sprintf("<m><x>w%d-%d</x><x>w%d-%d-b</x></m>", w, i, w, i)
					id, err := db.Insert(zoneIDs[w], frag)
					if err != nil {
						errs <- fmt.Errorf("writer %d insert: %w", w, err)
						return
					}
					live = append(live, id)
				}
				writesDone.Add(1)
			}
		}()
	}

	queries := []string{`//m/x`, `/root/zone[title = 'stable']`, `//m/x`, `//zone//x`}
	for r := 0; r < 8; r++ {
		q := queries[r%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < readRounds; round++ {
				res, err := db.Query(q)
				if err != nil {
					errs <- fmt.Errorf("reader: %s: %w", q, err)
					return
				}
				switch q {
				case `//m/x`, `//zone//x`:
					if res.Count()%2 != 0 {
						errs <- fmt.Errorf("torn read: %s saw %d ids (odd — half a marker pair)", q, res.Count())
						return
					}
				case `/root/zone[title = 'stable']`:
					if res.Count() != writers {
						errs <- fmt.Errorf("stable zones = %d, want %d", res.Count(), writers)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Reader-side snapshot pinning is observable: every query pinned one.
	if qs := db.QueryStats(); qs.SnapshotsPinned <= statsBefore.SnapshotsPinned {
		t.Errorf("SnapshotsPinned did not advance (%d -> %d)", statsBefore.SnapshotsPinned, qs.SnapshotsPinned)
	}

	// Post-hoc differential: the incrementally maintained indices agree
	// exactly with the naive oracle over the final state.
	for _, q := range []string{`//m/x`, `//m`, `/root/zone/m/x`, `//zone`, `//x`} {
		want, err := db.QueryWith(twigdb.Oracle, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []twigdb.Strategy{twigdb.StrategyRootPaths, twigdb.StrategyDataPaths, twigdb.Auto} {
			got, err := db.QueryWith(strat, q)
			if err != nil {
				t.Fatalf("%s via %v: %v", q, strat, err)
			}
			if len(got.IDs) != len(want.IDs) {
				t.Fatalf("%s via %v: %d ids, oracle %d (ghost or lost ids)", q, strat, len(got.IDs), len(want.IDs))
			}
			for i := range got.IDs {
				if got.IDs[i] != want.IDs[i] {
					t.Fatalf("%s via %v: ids diverge at %d", q, strat, i)
				}
			}
		}
	}
}

// TestGroupCommitAmortisesFsyncs: with several writers committing
// concurrently against a file-backed database, the WAL group-commit path
// must charge fewer fsyncs than committed updates, and the final state
// must survive close/reopen intact.
func TestGroupCommitAmortisesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.twigdb")
	db, err := twigdb.Open(&twigdb.Options{Path: path, BufferPoolBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString(`<root><z/><z/><z/><z/></root>`); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	zres, err := db.Query(`/root/z`)
	if err != nil || zres.Count() != 4 {
		t.Fatalf("zones: %v (%d)", err, zres.Count())
	}

	const writers, ops = 4, 25
	before := db.StorageStats()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if _, err := db.Insert(zres.IDs[w], fmt.Sprintf("<item><name>w%d-%d</name></item>", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := db.StorageStats()
	commits := int64(writers * ops)
	fsyncs := after.WALFsyncs - before.WALFsyncs
	if fsyncs >= commits {
		t.Errorf("no amortisation: %d fsyncs for %d commits", fsyncs, commits)
	}
	if batches := after.GroupCommitBatches - before.GroupCommitBatches; batches < 1 {
		t.Errorf("GroupCommitBatches = %d, want >= 1", batches)
	}

	want, err := db.QueryWith(twigdb.Oracle, `//item/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.IDs) != int(commits) {
		t.Fatalf("final state has %d items, want %d", len(want.IDs), commits)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.QueryWith(twigdb.StrategyDataPaths, `//item/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != int(commits) {
		t.Fatalf("reopened state has %d items, want %d", len(got.IDs), commits)
	}
}
