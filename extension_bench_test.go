// Extension benchmarks: the two comparison points the paper names but could
// not run inside DB2 — the XRel path-table baseline (Section 5.2.6's "the
// same argument applies to ... XRel") and binary structural joins over
// region-encoded candidate lists (Section 6's containment-join related
// work) — measured on the same substrate and workload as the paper's own
// figures.
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

// extensionDB builds XMark with the paper indices plus the extension
// structures.
func extensionDB(b *testing.B) *engine.DB {
	b.Helper()
	xm, _ := benchDatasets(b)
	db := xm.DB
	env := db.Env()
	if env.XRel == nil || env.Containment == nil {
		if err := db.Build(index.KindXRel, index.KindContainment); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkExtensionXRelRecursion runs the Figure 13 recursive queries
// under XRel+Edge: the path-table normalisation turns each // into several
// equality lookups, reproducing the paper's prediction for XRel.
func BenchmarkExtensionXRelRecursion(b *testing.B) {
	db := extensionDB(b)
	for _, q := range workload.ByGroup(workload.GroupRecursive) {
		pat := xpath.MustParse(q.XPath)
		for _, s := range []plan.Strategy{plan.DataPathsPlan, plan.XRelPlan} {
			s := s
			b.Run(fmt.Sprintf("%s/%s", q.ID, s), func(b *testing.B) {
				var res engine.ReadResult
				var err error
				for i := 0; i < b.N; i++ {
					res, err = db.Read(pat, engine.ReadOpts{Strategy: s, Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				es := res.Stats
				b.ReportMetric(float64(es.IndexLookups), "lookups/op")
				b.ReportMetric(float64(es.RelationsUsed), "pathids/op")
			})
		}
	}
}

// BenchmarkExtensionStructuralJoin compares the structural-join engine with
// ROOTPATHS/DATAPATHS on the paper's twig groups — the head-to-head the
// paper could not run ("we could not use the structural join algorithms
// since none has been implemented in commercial database systems").
func BenchmarkExtensionStructuralJoin(b *testing.B) {
	db := extensionDB(b)
	groups := []workload.Group{
		workload.GroupSelective, workload.GroupUnselective,
		workload.GroupLowBranch, workload.GroupRecursive,
	}
	for _, g := range groups {
		for _, q := range workload.ByGroup(g) {
			pat := xpath.MustParse(q.XPath)
			for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan, plan.StructuralJoinPlan} {
				s := s
				b.Run(fmt.Sprintf("%s/%s", q.ID, s), func(b *testing.B) {
					var res engine.ReadResult
					var err error
					for i := 0; i < b.N; i++ {
						res, err = db.Read(pat, engine.ReadOpts{Strategy: s, Workers: 1})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					es := res.Stats
					b.ReportMetric(float64(es.RowsScanned), "rows/op")
					b.ReportMetric(float64(es.Join.TuplesIn), "jointuples/op")
				})
			}
		}
	}
}

// BenchmarkExtensionIndexBuild measures construction cost of the extension
// structures next to the family's (complements Figure 9, which measures
// space).
func BenchmarkExtensionIndexBuild(b *testing.B) {
	for _, k := range []index.Kind{index.KindXRel, index.KindContainment} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := engine.New(engine.DefaultConfig())
				db.AddDocument(benchXMarkDoc(b))
				b.StartTimer()
				if err := db.Build(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchXMarkDoc(b *testing.B) *xmldb.Document {
	b.Helper()
	return datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * bench.Scale()})
}
