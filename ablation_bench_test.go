// Ablation benchmarks for the design choices DESIGN.md calls out: the
// statistics-driven INL-vs-merge decision, branch ordering, and the
// Section 7 incremental-update scheme. These go beyond the paper's figures;
// they quantify the individual mechanisms.
package twigdb_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// buildAndRun builds strat's tree against env and runs it serially — what
// a pinned read does per call, against an env the ablation has tweaked.
func buildAndRun(env *plan.Env, strat plan.Strategy, pat *xpath.Pattern) (*plan.ExecStats, error) {
	t, err := plan.Build(env, strat, pat)
	if err != nil {
		return nil, err
	}
	_, es, err := plan.ExecuteTree(env, t)
	return es, err
}

// BenchmarkAblationINLFactor sweeps the index-nested-loop threshold on the
// Figure 12(d) query: factor -1 disables INL (DP degenerates to RP's merge
// plan), larger factors demand more skew before probing.
func BenchmarkAblationINLFactor(b *testing.B) {
	xm, _ := benchDatasets(b)
	q, _ := workload.ByID("Q10x")
	pat := xpath.MustParse(q.XPath)
	for _, factor := range []int{-1, 1, 4, 16, 256} {
		factor := factor
		b.Run(fmt.Sprintf("factor=%d", factor), func(b *testing.B) {
			env := *xm.DB.Env() // copy so the shared Env is untouched
			env.INLFactor = factor
			var es *plan.ExecStats
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				es, err = buildAndRun(&env, plan.DataPathsPlan, pat)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(es.RowsScanned), "rows/op")
			b.ReportMetric(float64(es.INLProbes), "inlprobes/op")
		})
	}
}

// BenchmarkAblationBranchOrder compares statistics-driven branch ordering
// with naive pattern order on a mixed-selectivity twig (Q7x). With the
// project-and-deduplicate step after every join (the plan's DISTINCT on
// branch-point ids), intermediate results collapse to distinct branch-point
// ids either way, so ordering matters far less than the INL decision — a
// finding this ablation documents rather than a win it demonstrates.
func BenchmarkAblationBranchOrder(b *testing.B) {
	xm, _ := benchDatasets(b)
	q, _ := workload.ByID("Q7x")
	pat := xpath.MustParse(q.XPath)
	for _, reorder := range []bool{true, false} {
		reorder := reorder
		name := "stats-order"
		if !reorder {
			name = "pattern-order"
		}
		b.Run(name, func(b *testing.B) {
			env := *xm.DB.Env()
			env.NoReorder = !reorder
			var es *plan.ExecStats
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				es, err = buildAndRun(&env, plan.RootPathsPlan, pat)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(es.Join.TuplesIn), "jointuples/op")
		})
	}
}

// BenchmarkSec7UpdateAuthor measures the paper's Section 7 update example:
// inserting (and removing) an author subtree with incremental ROOTPATHS +
// DATAPATHS maintenance, versus what a full rebuild would cost.
func BenchmarkSec7UpdateAuthor(b *testing.B) {
	build := func() (*engine.DB, int64) {
		db := engine.New(engine.DefaultConfig())
		db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * bench.Scale()}))
		if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
			b.Fatal(err)
		}
		people, err := db.Read(xpath.MustParse(`/site/people`), engine.ReadOpts{Strategy: plan.RootPathsPlan, Workers: 1})
		if err != nil || len(people.IDs) != 1 {
			b.Fatalf("people: %v %v", people.IDs, err)
		}
		return db, people.IDs[0]
	}

	b.Run("incremental", func(b *testing.B) {
		db, peopleID := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub := xmldb.Elem("person",
				xmldb.Attr("id", fmt.Sprintf("bench%d", i)),
				xmldb.Text("name", "Bench Mark"),
				xmldb.Elem("profile", xmldb.Attr("income", "1.00")))
			if err := db.InsertSubtree(peopleID, sub); err != nil {
				b.Fatal(err)
			}
			if err := db.DeleteSubtree(sub.ID); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		db, _ := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
				b.Fatal(err)
			}
		}
	})
}
