package plan_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/xpath"
)

// TestSharedTreeConcurrentExecution is the shared-cached-plan regression
// test: one immutable plan tree (as the engine's plan cache hands out)
// executed from many goroutines at once must produce identical ids and
// identical per-run counters on every execution. The regression it guards:
// per-run state (actual cardinalities, operator counters, output blocks)
// used to live on the plan nodes themselves, so two queries hitting the
// same cached plan raced and cross-contaminated results. Run under -race
// in CI.
func TestSharedTreeConcurrentExecution(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	cases := []struct {
		q     string
		strat plan.Strategy
	}{
		{`//item[incategory/@category = 'c1'][quantity = '2']`, plan.DataPathsPlan},
		{`//author[fn = 'jane'][ln = 'doe']`, plan.RootPathsPlan},
		{`/site//item[quantity = 2]`, plan.ASRPlan},
		{`//open_auction[bidder/@increase = '3.00']/time`, plan.DataPathsPlan},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%v/%s", tc.strat, tc.q), func(t *testing.T) {
			pat := xpath.MustParse(tc.q)
			tree, err := plan.Build(env, tc.strat, pat)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, wantES, err := plan.ExecuteTree(env, tree)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines, iters = 8, 20
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						ids, es, err := plan.ExecuteTree(env, tree)
						if err != nil {
							errs <- err
							return
						}
						if !idsEqual(ids, wantIDs) {
							errs <- fmt.Errorf("ids diverged: %v, want %v", ids, wantIDs)
							return
						}
						if !statsEqual(es, wantES) {
							errs <- fmt.Errorf("stats diverged: %+v, want %+v", es, wantES)
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
		})
	}
}

// TestWarmedRunZeroAllocs pins the batched executor's allocation contract:
// a cache-hit query on a memory-resident database — a finalized tree plus a
// warmed runtime from its pool — executes with zero allocations per run.
// Every intermediate block, decode buffer, hash table and iterator is
// reused from the runtime; if this test reports non-zero allocations,
// something on the hot path regressed to per-row or per-probe allocation.
func TestWarmedRunZeroAllocs(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	queries := []struct {
		name string
		q    string
	}{
		{"hash-join", `//author[fn = 'jane'][ln = 'doe']`},
		{"single-branch", `//item/quantity[. = 2]`},
		{"three-branch", `//item[incategory/@category = 'c1'][quantity = '2']`},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			pat := xpath.MustParse(tc.q)
			tree, err := plan.Build(env, plan.DataPathsPlan, pat)
			if err != nil {
				t.Fatal(err)
			}
			run := plan.HoldRuntime(tree)
			// Warm the runtime: first runs size the blocks and buffers.
			for i := 0; i < 3; i++ {
				if _, err := run(env, 1, false); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := run(env, 1, false); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warmed run allocated %.1f objects/run, want 0", allocs)
			}
		})
	}
}

// TestBatchedBlockBoundary drives an intermediate relation across the
// BlockRows growth quantum: 3000 rows through probe, hash join and dedup,
// checked against the single-block regime for off-by-one row loss at block
// boundaries.
func TestBatchedBlockBoundary(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	// 3 * BlockRows rows in the probed branch; every third leaf matches.
	n := 3 * plan.BlockRows
	var want int64
	for i := 0; i < n; i++ {
		v := "n"
		if i%3 == 0 {
			v = "y"
			want++
		}
		fmt.Fprintf(&b, "<it><k>%s</k></it>", v)
	}
	b.WriteString("</r>")
	db := buildDB(t, b.String())
	env := db.Env()
	pat := xpath.MustParse(`/r/it[k = 'y']`)
	for _, strat := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
		ids, _, err := execute(env, strat, pat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if int64(len(ids)) != want {
			t.Errorf("%v: %d ids across block boundary, want %d", strat, len(ids), want)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("%v: ids not sorted distinct at %d: %v <= %v", strat, i, ids[i], ids[i-1])
			}
		}
	}
}
