package plan_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/xpath"
)

var traceQueries = []string{
	`//author[fn = 'jane'][ln = 'doe']`,
	`//item/quantity[. = 2]`,
	`//item[incategory/@category = 'c1'][quantity = '2']`,
	`//open_auction[bidder/@increase = '3.00']/time`,
}

// A traced run must report exactly the ids, per-operator actual rows and
// aggregate counters of an untraced run — tracing is a measurement overlay,
// never a second execution semantics. Both ways to turn it on are checked:
// Run's trace argument (EXPLAIN ANALYZE) and Env.TraceAll (every run).
func TestTraceParity(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	traceAll := *env
	traceAll.TraceAll = true
	traced := []struct {
		name string
		run  func(*plan.Tree) ([]int64, *plan.ExecStats, error)
	}{
		{"Run(trace)", func(tree *plan.Tree) ([]int64, *plan.ExecStats, error) { return plan.ExecuteTreeTraced(env, tree) }},
		{"Env.TraceAll", func(tree *plan.Tree) ([]int64, *plan.ExecStats, error) { return plan.ExecuteTree(&traceAll, tree) }},
	}
	for _, q := range traceQueries {
		pat := xpath.MustParse(q)
		tree, err := plan.Build(env, plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, wantES, err := plan.ExecuteTree(env, tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traced {
			gotIDs, gotES, err := tr.run(tree)
			if err != nil {
				t.Fatal(err)
			}
			if !idsEqual(gotIDs, wantIDs) {
				t.Errorf("%s %s: traced ids %v, want %v", tr.name, q, gotIDs, wantIDs)
			}
			if !statsEqual(gotES, wantES) {
				t.Errorf("%s %s: traced stats %+v, want %+v", tr.name, q, gotES, wantES)
			}
			if !gotES.Plan.Traced || wantES.Plan.Traced {
				t.Fatalf("%s %s: Traced flags wrong (traced=%v untraced=%v)",
					tr.name, q, gotES.Plan.Traced, wantES.Plan.Traced)
			}
			if gotES.Plan.Root.ElapsedNS <= 0 {
				t.Errorf("%s %s: root elapsed %d, want > 0", tr.name, q, gotES.Plan.Root.ElapsedNS)
			}
			// Per-operator actual rows must match node for node.
			var wantNodes, gotNodes []*plan.Node
			wantES.Plan.Walk(func(n *plan.Node, _ int) { wantNodes = append(wantNodes, n) })
			gotES.Plan.Walk(func(n *plan.Node, _ int) { gotNodes = append(gotNodes, n) })
			if len(wantNodes) != len(gotNodes) {
				t.Fatalf("%s %s: node counts differ: %d vs %d", tr.name, q, len(gotNodes), len(wantNodes))
			}
			for i := range wantNodes {
				if gotNodes[i].ActRows != wantNodes[i].ActRows {
					t.Errorf("%s %s: node %d (%s) act=%d, want %d",
						tr.name, q, i, gotNodes[i].Kind, gotNodes[i].ActRows, wantNodes[i].ActRows)
				}
				if wantNodes[i].ElapsedNS != 0 || wantNodes[i].SelfNS != 0 {
					t.Errorf("%s: untraced node %d carries elapsed=%d self=%d",
						q, i, wantNodes[i].ElapsedNS, wantNodes[i].SelfNS)
				}
			}
		}
	}
}

// Trace timing invariants: the root span covers the whole run, children's
// inclusive times nest inside their parent's (serial execution), and the
// self times telescope back to the root's inclusive time — which is what
// makes "where did the time go" answerable from the rendered tree.
func TestTraceTimingInvariants(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	for _, q := range traceQueries {
		pat := xpath.MustParse(q)
		tree, err := plan.Build(env, plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		_, es, err := plan.ExecuteTreeTraced(env, tree)
		if err != nil {
			t.Fatal(err)
		}
		root := es.Plan.Root
		if root.ElapsedNS <= 0 {
			t.Fatalf("%s: root elapsed %d, want > 0", q, root.ElapsedNS)
		}
		var selfSum int64
		es.Plan.Walk(func(n *plan.Node, _ int) {
			selfSum += n.SelfNS
			var childSum int64
			for _, c := range n.Children {
				if c.ElapsedNS > n.ElapsedNS {
					t.Errorf("%s: child %s elapsed %d exceeds parent %s elapsed %d",
						q, c.Kind, c.ElapsedNS, n.Kind, n.ElapsedNS)
				}
				childSum += c.ElapsedNS
			}
			if childSum > n.ElapsedNS {
				t.Errorf("%s: children of %s sum to %d > inclusive %d",
					q, n.Kind, childSum, n.ElapsedNS)
			}
		})
		// Children nest inside their parent, so the telescoped self times
		// equal the root span exactly.
		if selfSum != root.ElapsedNS {
			t.Errorf("%s: self times sum to %d, root span %d", q, selfSum, root.ElapsedNS)
		}
		// The rendered tree advertises the timings.
		r := es.Plan.Render()
		if !strings.Contains(r, "time=") || !strings.Contains(r, "self=") {
			t.Errorf("%s: traced render lacks timings:\n%s", q, r)
		}
	}
}

// Parallel traced sessions over one shared tree: with Env.TraceAll every
// concurrent run records its spans in its own pooled runtime, so each
// returned view must carry the serial ids and telescope exactly to its own
// root span — no run may see another's timings.
func TestTraceParallel(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	tenv := *env
	tenv.TraceAll = true
	pat := xpath.MustParse(`//item[incategory/@category = 'c1'][quantity = '2']`)
	tree, err := plan.Build(env, plan.RootPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, _, err := execute(env, plan.RootPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ids, es, err := plan.ExecuteTree(&tenv, tree)
				if err != nil {
					errs <- err
					return
				}
				if !idsEqual(ids, wantIDs) {
					errs <- fmt.Errorf("traced ids %v, want %v", ids, wantIDs)
					return
				}
				if !es.Plan.Traced || es.Plan.Root.ElapsedNS <= 0 {
					errs <- fmt.Errorf("view traced=%v root elapsed %d, want traced and > 0",
						es.Plan.Traced, es.Plan.Root.ElapsedNS)
					return
				}
				var selfSum int64
				es.Plan.Walk(func(n *plan.Node, _ int) { selfSum += n.SelfNS })
				if selfSum != es.Plan.Root.ElapsedNS {
					errs <- fmt.Errorf("self times sum to %d, root span %d", selfSum, es.Plan.Root.ElapsedNS)
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

// With tracing compiled in but off (the default), the warmed cache-hit
// path must still run with exactly zero allocations — and turning it on
// must not start allocating either, since all trace state lives in the
// pooled runtime. TestWarmedRunZeroAllocs keeps asserting the original
// contract; this test pins that the tracing branch itself is free.
func TestZeroAllocsWithTracingCompiledIn(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	if env.TraceAll {
		t.Fatal("engine env has TraceAll on by default")
	}
	pat := xpath.MustParse(`//item[incategory/@category = 'c1'][quantity = '2']`)
	tree, err := plan.Build(env, plan.DataPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	run := plan.HoldRuntime(tree)
	for _, tc := range []struct {
		name  string
		trace bool
	}{{"disabled", false}, {"enabled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			assertWarmedZeroAllocs(t, env, run, tc.trace)
		})
	}
	// Untraced, TestWarmedRunZeroAllocs already runs these.
	runExecutorPathCases(t, true)
}
