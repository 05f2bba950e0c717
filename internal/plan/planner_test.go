package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xpath"
)

func hasOp(t *plan.Tree, kind plan.OpKind) bool {
	found := false
	t.Walk(func(n *plan.Node, _ int) {
		if n.Kind == kind {
			found = true
		}
	})
	return found
}

func opList(t *plan.Tree) string {
	var ops []string
	t.Walk(func(n *plan.Node, d int) {
		ops = append(ops, fmt.Sprintf("%*s%s", d, "", n.Kind))
	})
	return strings.Join(ops, "\n")
}

// execTreeMatchesOracle executes the tree and compares with the naive
// matcher.
func execTreeMatchesOracle(t *testing.T, db *engine.DB, tree *plan.Tree, pat *xpath.Pattern) {
	t.Helper()
	want := naive.Match(db.Store(), pat)
	got, _, err := plan.ExecuteTree(db.Env(), tree)
	if err != nil {
		t.Fatalf("ExecuteTree: %v", err)
	}
	if !idsEqual(got, want) {
		t.Fatalf("tree result %v, want %v\n%s", got, want, tree.Render())
	}
}

// TestForcedOperatorKinds pins environments and thresholds so that every
// operator of the algebra appears in a built tree, and each such tree still
// returns the oracle's answer.
func TestForcedOperatorKinds(t *testing.T) {
	db := buildDB(t, auctionXML)

	t.Run("probe-project-dedup", func(t *testing.T) {
		pat := xpath.MustParse(`/site/people/person/name`)
		tree, err := plan.Build(db.Env(), plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []plan.OpKind{plan.OpIndexProbe, plan.OpProject, plan.OpDedup} {
			if !hasOp(tree, k) {
				t.Fatalf("missing %s:\n%s", k, opList(tree))
			}
		}
		execTreeMatchesOracle(t, db, tree, pat)
	})

	t.Run("hash-join", func(t *testing.T) {
		env := *db.Env()
		env.INLFactor = -1 // INL disabled: every stitch is a hash join
		pat := xpath.MustParse(`/site/open_auctions/open_auction[annotation/author/@person = 'p1']/time`)
		tree, err := plan.Build(&env, plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		if !hasOp(tree, plan.OpHashJoin) || hasOp(tree, plan.OpINLJoin) {
			t.Fatalf("want hash-join only:\n%s", opList(tree))
		}
		execTreeMatchesOracle(t, db, tree, pat)
	})

	t.Run("inl-join", func(t *testing.T) {
		env := *db.Env()
		env.INLFactor = 1 // any less-selective branch goes index-nested-loop
		// The author branch matches 1 row, the time branch 3: with factor 1
		// the time branch must be probed bound.
		pat := xpath.MustParse(`/site/open_auctions/open_auction[annotation/author/@person = 'p1']/time`)
		tree, err := plan.Build(&env, plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		if !hasOp(tree, plan.OpINLJoin) {
			t.Fatalf("want an inl-join:\n%s", opList(tree))
		}
		execTreeMatchesOracle(t, db, tree, pat)
		_, es, err := execute(&env, plan.DataPathsPlan, pat)
		if err != nil || !es.UsedINL || es.INLProbes == 0 {
			t.Fatalf("INL not reported: err=%v used=%v probes=%d", err, es.UsedINL, es.INLProbes)
		}
	})

	t.Run("path-filter", func(t *testing.T) {
		fdb := buildDB(t, `<r><x>k<y>v</y></x><x>m<y>v</y></x></r>`)
		env := *fdb.Env()
		env.NoReorder = true // keep the synthetic interior-value branch last
		pat := xpath.MustParse(`/r/x[. = 'k']/y`)
		tree, err := plan.Build(&env, plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		if !hasOp(tree, plan.OpPathFilter) {
			t.Fatalf("want a path-filter:\n%s", opList(tree))
		}
		execTreeMatchesOracle(t, fdb, tree, pat)
	})

	t.Run("structural-join", func(t *testing.T) {
		pat := xpath.MustParse(`/site//item[quantity = 2]/location`)
		tree, err := plan.Build(db.Env(), plan.StructuralJoinPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		if !hasOp(tree, plan.OpStructuralJoin) || !hasOp(tree, plan.OpRegionScan) {
			t.Fatalf("want structural-join over region-scans:\n%s", opList(tree))
		}
		execTreeMatchesOracle(t, db, tree, pat)
	})
}

// TestPlannerConsidersOnlyBuiltIndices: the candidate set tracks exactly
// what is built, and Choose picks an executable plan.
func TestPlannerConsidersOnlyBuiltIndices(t *testing.T) {
	db := engine.New(engine.Config{BufferPoolBytes: 8 << 20})
	if err := db.LoadXML(strings.NewReader(auctionXML)); err != nil {
		t.Fatal(err)
	}
	pat := xpath.MustParse(`/site/people/person/name`)

	if err := db.Build(); err != nil { // statistics, no index
		t.Fatal(err)
	}
	if _, _, err := plan.Choose(db.Env(), pat); err == nil {
		t.Fatalf("Choose with no index: want error")
	}

	if err := db.Build(index.KindEdge); err != nil {
		t.Fatal(err)
	}
	tree, cands, err := plan.Choose(db.Env(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Strategy != plan.EdgePlan || len(cands) != 1 {
		t.Fatalf("only Edge built: chose %v among %d candidates", tree.Strategy, len(cands))
	}

	if err := db.Build(index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	tree, cands, err = plan.Choose(db.Env(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Strategy != plan.DataPathsPlan {
		t.Fatalf("DP built but planner chose %v (%v)", tree.Strategy, cands)
	}
	want := naive.Match(db.Store(), pat)
	got, _, err := plan.ExecuteTree(db.Env(), tree)
	if err != nil || !idsEqual(got, want) {
		t.Fatalf("chosen plan wrong: %v / %v, err %v", got, want, err)
	}
}

// TestPlannerPrefersPathIndexOverEdge: on a path query the cost model must
// rank the one-lookup path indices ahead of the per-step edge walk.
func TestPlannerPrefersPathIndexOverEdge(t *testing.T) {
	db := buildDB(t, auctionXML)
	pat := xpath.MustParse(`/site/regions/namerica/item/quantity[. = 2]`)
	tree, cands, err := plan.Choose(db.Env(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Strategy != plan.DataPathsPlan && tree.Strategy != plan.RootPathsPlan {
		t.Fatalf("chose %v, want a path index; candidates: %+v", tree.Strategy, cands)
	}
	var edgeCost, chosenCost float64
	for _, c := range cands {
		if c.Strategy == plan.EdgePlan {
			edgeCost = c.Cost
		}
		if c.Strategy == tree.Strategy {
			chosenCost = c.Cost
		}
	}
	if edgeCost <= chosenCost {
		t.Fatalf("edge cost %.0f not above chosen %.0f", edgeCost, chosenCost)
	}
}

// TestPlannerChoosesStructuralJoin: with only the containment + edge
// indices built and a value-heavy descendant twig, the structural join must
// out-cost the per-step edge walk and get chosen.
func TestPlannerChoosesStructuralJoin(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<r>`)
	for i := 0; i < 120; i++ {
		b.WriteString(`<a><b>v</b></a>`)
	}
	b.WriteString(`</r>`)
	db := engine.New(engine.Config{BufferPoolBytes: 8 << 20})
	if err := db.LoadXML(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindEdge, index.KindContainment); err != nil {
		t.Fatal(err)
	}
	pat := xpath.MustParse(`//a[b = 'v']`)
	tree, cands, err := plan.Choose(db.Env(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Strategy != plan.StructuralJoinPlan {
		t.Fatalf("chose %v, want SJ; candidates: %+v", tree.Strategy, cands)
	}
	want := naive.Match(db.Store(), pat)
	got, _, err := plan.ExecuteTree(db.Env(), tree)
	if err != nil || !idsEqual(got, want) {
		t.Fatalf("SJ plan wrong: got %d ids want %d, err %v", len(got), len(want), err)
	}
}
