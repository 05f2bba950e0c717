package twigdb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	twigdb "repro"
)

// TestStressReadersWriters interleaves writer goroutines doing subtree
// insert/delete with reader goroutines querying through the incrementally
// maintained indices, then checks post-hoc invariants: the indexed
// strategies must agree exactly with the naive oracle (which walks the live
// tree), so no deleted subtree may leave ghost ids behind in any IdList and
// no inserted one may be missing. Run under -race in CI.
func TestStressReadersWriters(t *testing.T) {
	const (
		writers   = 4
		readers   = 4
		writerOps = 40
		readerOps = 120
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
	if err != nil {
		t.Fatal(err)
	}
	if zres.Count() != writers {
		t.Fatalf("found %d zones, want %d", zres.Count(), writers)
	}
	zoneIDs := zres.IDs

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	// Writers: each owns one zone and churns item subtrees under it.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var live []int64
			for i := 0; i < writerOps; i++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					if err := db.Delete(live[k]); err != nil {
						errs <- fmt.Errorf("writer %d: delete #%d: %w", w, live[k], err)
						return
					}
					live = append(live[:k], live[k+1:]...)
					continue
				}
				frag := fmt.Sprintf("<item><name>w%d-%d</name><tag>hot</tag></item>", w, i)
				id, err := db.Insert(zoneIDs[w], frag)
				if err != nil {
					errs <- fmt.Errorf("writer %d: insert: %w", w, err)
					return
				}
				live = append(live, id)
			}
		}()
	}

	// Readers: indexed queries must always succeed and must always see a
	// consistent snapshot — in particular, the stable titles are never
	// touched by writers, so their count is invariant throughout.
	readQueries := []struct {
		q     string
		strat twigdb.Strategy
	}{
		{`/root/zone[title = 'stable']`, twigdb.StrategyRootPaths},
		{`/root/zone[title = 'stable']`, twigdb.StrategyDataPaths},
		{`//zone/title`, twigdb.Auto},
		{`//item[tag = 'hot']/name`, twigdb.StrategyDataPaths},
		{`//item[tag = 'hot']`, twigdb.Oracle},
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readerOps; i++ {
				rq := readQueries[(r+i)%len(readQueries)]
				res, err := db.QueryWith(rq.strat, rq.q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %s via %v: %w", r, rq.q, rq.strat, err)
					return
				}
				if rq.q == `/root/zone[title = 'stable']` && res.Count() != writers {
					errs <- fmt.Errorf("reader %d: stable zones = %d, want %d (torn snapshot)", r, res.Count(), writers)
					return
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

	// The atomic query counters must have seen every indexed reader query
	// (Oracle queries bypass the engine and are not counted).
	indexed := 0
	for _, rq := range readQueries {
		if rq.strat != twigdb.Oracle {
			indexed++
		}
	}
	minQueries := int64(readers * readerOps * indexed / len(readQueries))
	if qs := db.QueryStats(); qs.Queries < minQueries {
		t.Errorf("QueryStats.Queries = %d, want >= %d", qs.Queries, minQueries)
	}

	// Post-hoc: the incrementally maintained indices agree exactly with
	// the oracle on everything the churn touched.
	for _, q := range []string{
		`//item`, `//item[tag = 'hot']/name`, `/root/zone/item/name`,
		`//zone`, `/root/zone[title = 'stable']`, `//name`,
	} {
		want, err := db.QueryWith(twigdb.Oracle, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []twigdb.Strategy{twigdb.StrategyRootPaths, twigdb.StrategyDataPaths} {
			got, err := db.QueryWith(strat, q)
			if err != nil {
				t.Fatalf("%s via %v: %v", q, strat, err)
			}
			if len(got.IDs) != len(want.IDs) {
				t.Fatalf("%s via %v: %d ids, oracle %d (ghost or lost ids)", q, strat, len(got.IDs), len(want.IDs))
			}
			for i := range got.IDs {
				if got.IDs[i] != want.IDs[i] {
					t.Fatalf("%s via %v: ids diverge at %d: %d != %d", q, strat, i, got.IDs[i], want.IDs[i])
				}
			}
		}
	}
}

// TestStressConcurrentQueriesDuringWrites runs queries from several
// goroutines concurrently with a writer, making sure N-in-flight sessions
// and mutations compose.
func TestStressConcurrentQueriesDuringWrites(t *testing.T) {
	db := twigdb.MustOpen(nil)
	if err := db.LoadXMLString(`<root><zone><title>stable</title></zone></root>`); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	zres, err := db.Query(`/root/zone`)
	if err != nil || zres.Count() != 1 {
		t.Fatalf("zone query: %v, count %d", err, zres.Count())
	}
	zone := zres.IDs[0]

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			id, err := db.Insert(zone, fmt.Sprintf("<item><name>n%d</name></item>", i))
			if err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := db.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	queries := make([]string, 32)
	for i := range queries {
		switch i % 3 {
		case 0:
			queries[i] = `/root/zone[title = 'stable']`
		case 1:
			queries[i] = `//item/name`
		default:
			queries[i] = `//zone`
		}
	}
	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := r; i < len(queries); i += readers {
					res, err := db.QueryWith(twigdb.StrategyDataPaths, queries[i])
					if err != nil {
						t.Error(err)
						return
					}
					if queries[i] == `/root/zone[title = 'stable']` && res.Count() != 1 {
						t.Errorf("round %d: stable zone count %d", round, res.Count())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done

	want, _ := db.QueryWith(twigdb.Oracle, `//item/name`)
	got, err := db.QueryWith(twigdb.StrategyDataPaths, `//item/name`)
	if err != nil || len(got.IDs) != len(want.IDs) {
		t.Fatalf("post-hoc: %v, %d ids vs oracle %d", err, len(got.IDs), len(want.IDs))
	}
}
