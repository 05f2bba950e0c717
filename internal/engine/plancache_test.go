package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// TestCachedPlanConcurrentQueries is the engine-level shared-plan
// regression test: query sessions running the same pattern through
// QueryPatternBest share one cached plan tree per snapshot, and must all
// see identical results and work counters. Before per-run state moved off
// the plan nodes into pooled runtimes, this raced (caught by -race) and
// could return another query's cardinalities. workers is the number of
// concurrent sessions: one reuses the cached tree run after run, eight
// contend for it.
func TestCachedPlanConcurrentQueries(t *testing.T) {
	_, doc := diffRig(77, 300)
	db := New(Config{BufferPoolBytes: 8 << 20})
	db.AddDocument(doc)
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`//a/b`,
		`//b[c = 'v0']`,
		`/a//c`,
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, q := range queries {
				pat, err := xpath.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				// Prime the cache, establishing the reference run.
				wantIDs, wantES, _, err := db.QueryPatternBest(pat, 1)
				if err != nil {
					t.Fatal(err)
				}
				const iters = 15
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							ids, es, _, err := db.QueryPatternBest(pat, 1)
							if err != nil {
								errs <- err
								return
							}
							if !equalIDs(ids, wantIDs) {
								errs <- fmt.Errorf("%s: ids diverged: %v, want %v", q, ids, wantIDs)
								return
							}
							if es.IndexLookups != wantES.IndexLookups ||
								es.RowsScanned != wantES.RowsScanned ||
								es.INLProbes != wantES.INLProbes {
								errs <- fmt.Errorf("%s: counters diverged: %+v, want %+v", q, es, wantES)
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
			}
		})
	}
}

// TestQueryPatternBestAllocBound keeps the engine's cache-hit query path —
// the serial Auto read the public DB.Query issues — at a fixed handful of
// allocations, independent of data size and of the plan's operator count.
// The plan-level executor is allocation-free when warmed (asserted in the
// plan package); what remains here is exactly five objects: the per-query
// ExecStats, its executed plan view (the Tree, one slab of operators, one
// of child links) and the result copy. A sixth means the view went back to
// allocating per operator or something on the path started allocating per
// query; per-row allocation shows up as hundreds. Under the race detector
// the runtime pool drops entries at random and a re-drawn runtime allocates
// its blocks afresh, so there only the per-row regression is caught.
func TestQueryPatternBestAllocBound(t *testing.T) {
	_, doc := diffRig(78, 300)
	db := New(Config{BufferPoolBytes: 8 << 20})
	db.AddDocument(doc)
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	pat := xpath.MustParse(`//b[c = 'v0']`)
	opts := ReadOpts{Planner: Auto}
	// Warm: plan cached, statistics derived, runtime pooled.
	for i := 0; i < 3; i++ {
		if _, err := db.Read(pat, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Read(pat, opts); err != nil {
			t.Fatal(err)
		}
	})
	budget := 5.0
	if raceEnabled {
		budget = 64
	}
	if allocs > budget {
		t.Errorf("cache-hit Auto read allocated %.1f objects/run, want <= %.0f", allocs, budget)
	}
}

// diffRig returns a seeded RNG and a generated document for the cache
// tests, reusing the differential harness's generator.
func diffRig(seed int64, maxNodes int) (*rand.Rand, *xmldb.Document) {
	rng := rand.New(rand.NewSource(seed))
	return rng, genDoc(rng, maxNodes)
}
