package plan_test

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/xpath"
)

func TestExplainOrderMatchesEstimates(t *testing.T) {
	db := buildDB(t, auctionXML)
	pat := xpath.MustParse(`/site[people/person/profile/@income = 100]/open_auctions/open_auction[@increase = 3.00]`)
	out, err := plan.Explain(db.Env(), plan.RootPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	// The income branch (fewer rows in the fixture) must be scanned before
	// the increase branch.
	incomeAt := strings.Index(out, "@income")
	increaseAt := strings.Index(out, "@increase")
	if incomeAt < 0 || increaseAt < 0 || incomeAt > increaseAt {
		t.Fatalf("branch order wrong:\n%s", out)
	}
	for _, want := range []string{"strategy RP", "scan ROOTPATHS", "hash-join", "project", "dedup", "est=", "est cost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}

	// NoReorder keeps pattern order.
	env := *db.Env()
	env.NoReorder = true
	out2, err := plan.Explain(&env, plan.RootPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "scan") {
		t.Fatalf("NoReorder explain broken:\n%s", out2)
	}

	// The structural-join plan renders region scans under the twig join.
	sj, err := plan.Explain(db.Env(), plan.StructuralJoinPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"structural-join", "semi-join", "region-scan", "value-index"} {
		if !strings.Contains(sj, want) {
			t.Fatalf("SJ explain missing %q:\n%s", want, sj)
		}
	}

	// Missing index errors.
	envNone := plan.Env{Store: db.Store(), Dict: db.Dict()}
	if _, err := plan.Explain(&envNone, plan.DataPathsPlan, pat); err == nil {
		t.Fatalf("Explain without index: want error")
	}
	if _, err := plan.Explain(&envNone, plan.StructuralJoinPlan, pat); err == nil {
		t.Fatalf("SJ explain without index: want error")
	}
}

// TestExplainActuals: executing a tree fills per-operator actual
// cardinalities, and the rendering reports est vs. act.
func TestExplainActuals(t *testing.T) {
	db := buildDB(t, auctionXML)
	pat := xpath.MustParse(`/site/regions/namerica/item/quantity[. = 2]`)
	ids, es, err := execute(db.Env(), plan.DataPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	if es.Plan == nil || !es.Plan.Executed {
		t.Fatalf("ExecStats.Plan not attached/executed: %+v", es.Plan)
	}
	out := es.Plan.Render()
	if !strings.Contains(out, "act=") {
		t.Fatalf("executed plan missing actuals:\n%s", out)
	}
	if !strings.Contains(out, "strategy DP") {
		t.Fatalf("executed plan missing strategy:\n%s", out)
	}
	// The dedup root's actual cardinality is the result count.
	if es.Plan.Root.ActRows != int64(len(ids)) {
		t.Fatalf("root act=%d, want %d", es.Plan.Root.ActRows, len(ids))
	}
	// Estimates are exact on this substrate: the probe's est equals act.
	var mismatch bool
	es.Plan.Walk(func(n *plan.Node, _ int) {
		if n.Kind == plan.OpIndexProbe && n.ActRows >= 0 && n.EstRows != n.ActRows {
			mismatch = true
		}
	})
	if mismatch {
		t.Fatalf("probe est != act on exact statistics:\n%s", out)
	}
}

// TestExplainChosen renders the planner's deliberation: every candidate
// with a cost and the chosen tree.
func TestExplainChosen(t *testing.T) {
	db := buildDB(t, auctionXML)
	pat := xpath.MustParse(`/site/people/person/name`)
	out, strat, err := plan.ExplainChosen(db.Env(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "planner:") || !strings.Contains(out, "candidate plan(s)") {
		t.Fatalf("missing planner header:\n%s", out)
	}
	if !strings.Contains(out, "strategy "+strat.String()) {
		t.Fatalf("chosen strategy %v not rendered:\n%s", strat, out)
	}
}
