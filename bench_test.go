// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5). Run with:
//
//	go test -bench=. -benchmem
//
// Dataset scale is controlled by REPRO_SCALE (default 1). Each figure's
// benchmark has one sub-benchmark per (query, strategy) cell; ns/op is the
// reproduction of the figure's y-axis, and the reported custom metrics
// (rows, lookups, inlprobes) are the machine-independent explanation of the
// shape. cmd/twigbench renders the same data as paper-style tables.
package twigdb_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

var (
	benchOnce sync.Once
	benchXM   *bench.Dataset
	benchDBLP *bench.Dataset
	benchErr  error
)

func benchDatasets(b *testing.B) (*bench.Dataset, *bench.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		benchXM, benchErr = bench.BuildXMark(bench.Scale())
		if benchErr == nil {
			benchDBLP, benchErr = bench.BuildDBLP(bench.Scale())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchXM, benchDBLP
}

// benchQuery measures one (query, strategy) cell.
func benchQuery(b *testing.B, ds *bench.Dataset, q workload.Query, strat plan.Strategy) {
	b.Helper()
	pat, err := xpath.Parse(q.XPath)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the buffer pool, as the paper does.
	opts := engine.ReadOpts{Strategy: strat, Workers: 1}
	if _, err := ds.DB.Read(pat, opts); err != nil {
		b.Fatal(err)
	}
	var res engine.ReadResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = ds.DB.Read(pat, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if es := res.Stats; es != nil {
		b.ReportMetric(float64(es.RowsScanned), "rows/op")
		b.ReportMetric(float64(es.IndexLookups), "lookups/op")
		b.ReportMetric(float64(es.INLProbes), "inlprobes/op")
	}
}

func figureBench(b *testing.B, ds *bench.Dataset, queries []workload.Query, strategies []plan.Strategy) {
	b.Helper()
	for _, q := range queries {
		for _, s := range strategies {
			q, s := q, s
			b.Run(fmt.Sprintf("%s/%s", q.ID, s), func(b *testing.B) {
				benchQuery(b, ds, q, s)
			})
		}
	}
}

// BenchmarkFig09Space regenerates Figure 9 (index space): each
// sub-benchmark builds one index structure and reports its size in MB.
func BenchmarkFig09Space(b *testing.B) {
	kinds := []index.Kind{
		index.KindRootPaths, index.KindDataPaths, index.KindEdge,
		index.KindDataGuide, index.KindIndexFabric, index.KindASR,
		index.KindJoinIndex,
	}
	for _, dataset := range []string{"XMark", "DBLP"} {
		for _, k := range kinds {
			dataset, k := dataset, k
			b.Run(fmt.Sprintf("%s/%s", dataset, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := engine.New(engine.DefaultConfig())
					if dataset == "XMark" {
						db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * bench.Scale()}))
					} else {
						db.AddDocument(datagen.DBLP(datagen.DBLPConfig{Papers: 1500 * bench.Scale()}))
					}
					b.StartTimer()
					if err := db.Build(k); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					for _, s := range db.Spaces() {
						if s.Kind == k {
							b.ReportMetric(float64(s.Bytes)/(1<<20), "MB")
						}
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkFig11SinglePath regenerates Figure 11(a)/(b): single-path
// queries of increasing result cardinality across RP, DP, Edge, DG+Edge,
// IF+Edge.
func BenchmarkFig11SinglePath(b *testing.B) {
	xm, dblp := benchDatasets(b)
	for _, q := range workload.ByGroup(workload.GroupSinglePath) {
		ds := xm
		if q.Dataset == "dblp" {
			ds = dblp
		}
		for _, s := range bench.Fig11Strategies {
			q, s, ds := q, s, ds
			b.Run(fmt.Sprintf("%s/%s", q.ID, s), func(b *testing.B) {
				benchQuery(b, ds, q, s)
			})
		}
	}
}

// BenchmarkFig12aSelective regenerates Figure 12(a): twigs with selective
// branches (plus the single-branch baseline).
func BenchmarkFig12aSelective(b *testing.B) {
	xm, _ := benchDatasets(b)
	queries := append([]workload.Query{{
		ID: "base", Dataset: "xmark",
		XPath: `/site/people/person/profile/@income[. = '` + datagen.IncomeRare + `']`,
	}}, workload.ByGroup(workload.GroupSelective)...)
	figureBench(b, xm, queries, bench.Fig11Strategies)
}

// BenchmarkFig12bMixed regenerates Figure 12(b): selective + unselective
// branches.
func BenchmarkFig12bMixed(b *testing.B) {
	xm, _ := benchDatasets(b)
	figureBench(b, xm, workload.ByGroup(workload.GroupMixed), bench.Fig11Strategies)
}

// BenchmarkFig12cUnselective regenerates Figure 12(c): unselective
// branches.
func BenchmarkFig12cUnselective(b *testing.B) {
	xm, _ := benchDatasets(b)
	figureBench(b, xm, workload.ByGroup(workload.GroupUnselective), bench.Fig11Strategies)
}

// BenchmarkFig12dLowBranch regenerates Figure 12(d): low branch points,
// where DP's index-nested-loop join wins and RP degrades.
func BenchmarkFig12dLowBranch(b *testing.B) {
	xm, _ := benchDatasets(b)
	figureBench(b, xm, workload.ByGroup(workload.GroupLowBranch), bench.Fig11Strategies)
}

// BenchmarkFig13RecursiveBranch regenerates Figure 13: // as branch point,
// RP/DP vs ASR/JI.
func BenchmarkFig13RecursiveBranch(b *testing.B) {
	xm, _ := benchDatasets(b)
	figureBench(b, xm, workload.ByGroup(workload.GroupRecursive), bench.Fig13Strategies)
}

// BenchmarkSec524RecursionOverhead regenerates the Section 5.2.4
// experiment: each selective twig with and without a leading //.
func BenchmarkSec524RecursionOverhead(b *testing.B) {
	xm, _ := benchDatasets(b)
	for _, q := range workload.ByGroup(workload.GroupSelective) {
		rq := q
		rq.ID = q.ID + "rec"
		rq.XPath = "/" + q.XPath
		for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
			for _, variant := range []workload.Query{q, rq} {
				variant, s := variant, s
				b.Run(fmt.Sprintf("%s/%s", variant.ID, s), func(b *testing.B) {
					benchQuery(b, xm, variant, s)
				})
			}
		}
	}
}

// BenchmarkSec525Compression regenerates the Section 5.2.5 space study:
// each sub-benchmark builds a compression variant and reports MB.
func BenchmarkSec525Compression(b *testing.B) {
	variants := []struct {
		name string
		opts index.PathsOptions
	}{
		{"raw-idlists", index.PathsOptions{RawIDs: true}},
		{"delta-idlists", index.PathsOptions{}},
		{"schemapath-ids", index.PathsOptions{PathIDKeys: true}},
	}
	doc := datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * bench.Scale()})
	for _, v := range variants {
		v := v
		b.Run("DATAPATHS/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := engine.New(engine.Config{BufferPoolBytes: 40 << 20, PathsOptions: v.opts})
				db.AddDocument(doc)
				b.StartTimer()
				if err := db.Build(index.KindDataPaths); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, s := range db.Spaces() {
					if s.Kind == index.KindDataPaths {
						b.ReportMetric(float64(s.Bytes)/(1<<20), "MB")
					}
				}
				b.StartTimer()
			}
		})
	}
}
