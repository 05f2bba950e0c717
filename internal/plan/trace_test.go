package plan_test

import (
	"strings"
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
// aggregate counters of an untraced serial run — tracing is a measurement
// overlay, never a second execution semantics.
func TestTraceParity(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
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
		gotIDs, gotES, err := plan.ExecuteTreeTraced(env, tree)
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(gotIDs, wantIDs) {
			t.Errorf("%s: traced ids %v, want %v", q, gotIDs, wantIDs)
		}
		if !statsEqual(gotES, wantES) {
			t.Errorf("%s: traced stats %+v, want %+v", q, gotES, wantES)
		}
		if !gotES.Plan.Traced || wantES.Plan.Traced {
			t.Fatalf("%s: Traced flags wrong (traced=%v untraced=%v)",
				q, gotES.Plan.Traced, wantES.Plan.Traced)
		}
		// Per-operator actual rows must match node for node.
		var wantNodes, gotNodes []*plan.Node
		wantES.Plan.Walk(func(n *plan.Node, _ int) { wantNodes = append(wantNodes, n) })
		gotES.Plan.Walk(func(n *plan.Node, _ int) { gotNodes = append(gotNodes, n) })
		if len(wantNodes) != len(gotNodes) {
			t.Fatalf("%s: node counts differ: %d vs %d", q, len(gotNodes), len(wantNodes))
		}
		for i := range wantNodes {
			if gotNodes[i].ActRows != wantNodes[i].ActRows {
				t.Errorf("%s: node %d (%s) act=%d, want %d",
					q, i, gotNodes[i].Kind, gotNodes[i].ActRows, wantNodes[i].ActRows)
			}
			if wantNodes[i].ElapsedNS != 0 || wantNodes[i].SelfNS != 0 {
				t.Errorf("%s: untraced node %d carries elapsed=%d self=%d",
					q, i, wantNodes[i].ElapsedNS, wantNodes[i].SelfNS)
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
		// With no clamping in a serial run the telescoped self times equal
		// the root span exactly.
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

// A fanned-out run's traced view keeps the same invariant at the root: the
// span covers fan-out plus spine, and probe spans are recorded by the
// workers that materialised them. Tracing comes from Env.TraceAll here, the
// other way to turn it on.
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
	ids, es, err := plan.Run(&tenv, tree, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !es.Parallel {
		t.Fatal("4 workers over a three-branch tree did not fan out")
	}
	wantIDs, _, err := execute(env, plan.RootPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(ids, wantIDs) {
		t.Fatalf("parallel traced ids %v, want %v", ids, wantIDs)
	}
	if !es.Plan.Traced {
		t.Fatal("parallel view not marked traced")
	}
	if es.Plan.Root.ElapsedNS <= 0 {
		t.Fatalf("parallel root elapsed %d, want > 0", es.Plan.Root.ElapsedNS)
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
