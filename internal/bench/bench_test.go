package bench

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

var (
	once  sync.Once
	xmDS  *Dataset
	dbDS  *Dataset
	dsErr error
)

func datasets(t testing.TB) (*Dataset, *Dataset) {
	t.Helper()
	once.Do(func() {
		xmDS, dsErr = BuildXMark(1)
		if dsErr == nil {
			dbDS, dsErr = BuildDBLP(1)
		}
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return xmDS, dbDS
}

// TestWorkloadCorrectOnXMark cross-validates the entire paper workload
// against the oracle, for every strategy, on the real evaluation dataset.
func TestWorkloadCorrectOnXMark(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload validation is not short")
	}
	xm, dblp := datasets(t)
	all := []plan.Strategy{
		plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan,
		plan.DataGuideEdgePlan, plan.FabricEdgePlan, plan.ASRPlan,
		plan.JoinIndexPlan, plan.XRelPlan,
	}
	for _, q := range workload.All() {
		ds := xm
		if q.Dataset == "dblp" {
			ds = dblp
		}
		pat := xpath.MustParse(q.XPath)
		want := naive.Match(ds.DB.Store(), pat)
		if q.ID == "Q1x" || q.ID == "Q1d" {
			if len(want) != 1 {
				t.Errorf("%s oracle result = %d, want the planted 1", q.ID, len(want))
			}
		}
		for _, s := range all {
			res, err := ds.DB.Read(pat, pinnedOpts(s))
			got := res.IDs
			if err != nil {
				t.Fatalf("%s via %v: %v", q.ID, s, err)
			}
			if len(got) != len(want) {
				t.Errorf("%s via %v: %d results, oracle %d", q.ID, s, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s via %v: ids differ at %d", q.ID, s, i)
					break
				}
			}
		}
	}
}

// TestFig09SpaceShape checks the paper's Figure 9 orderings: on deep XMark,
// DP is much larger than RP and JI is the largest; on shallow DBLP the
// RP/DP spread collapses.
func TestFig09SpaceShape(t *testing.T) {
	xm, dblp := datasets(t)
	size := func(ds *Dataset, k index.Kind) int64 {
		for _, s := range ds.DB.Spaces() {
			if s.Kind == k {
				return s.Bytes
			}
		}
		t.Fatalf("no %v in %s", k, ds.Name)
		return 0
	}
	xmRP := size(xm, index.KindRootPaths)
	xmDP := size(xm, index.KindDataPaths)
	xmASR := size(xm, index.KindASR)
	xmJI := size(xm, index.KindJoinIndex)
	if xmDP < 2*xmRP {
		t.Errorf("XMark: DP (%d) should be much larger than RP (%d)", xmDP, xmRP)
	}
	if xmJI <= xmASR {
		t.Errorf("XMark: JI (%d) should exceed ASR (%d) (two trees per path)", xmJI, xmASR)
	}
	dbRP := size(dblp, index.KindRootPaths)
	dbDP := size(dblp, index.KindDataPaths)
	xmRatio := float64(xmDP) / float64(xmRP)
	dbRatio := float64(dbDP) / float64(dbRP)
	if dbRatio >= xmRatio {
		t.Errorf("DP/RP ratio should shrink on shallow DBLP: xmark %.2f, dblp %.2f", xmRatio, dbRatio)
	}
}

// TestFig11Shape checks Figure 11's claim on the unselective single-path
// query: RP and IF+Edge stay fast while Edge and DG+Edge degrade (the
// separated structure/value lookup).
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	xm, _ := datasets(t)
	q3, _ := workload.ByID("Q3x")
	work := func(s plan.Strategy) int64 {
		m, err := Run(xm, q3, s)
		if err != nil {
			t.Fatal(err)
		}
		// lookups + rows scanned + join traffic as the machine-independent
		// cost proxy.
		return m.Stats.IndexLookups + m.Stats.RowsScanned + m.Stats.Join.TuplesIn
	}
	rp := work(plan.RootPathsPlan)
	edge := work(plan.EdgePlan)
	dg := work(plan.DataGuideEdgePlan)
	iff := work(plan.FabricEdgePlan)
	if edge < 2*rp {
		t.Errorf("Edge work (%d) should far exceed RP (%d) on unselective paths", edge, rp)
	}
	if dg < 2*rp {
		t.Errorf("DG+Edge work (%d) should far exceed RP (%d)", dg, rp)
	}
	if iff > edge {
		t.Errorf("IF+Edge (%d) should beat Edge (%d) on single paths", iff, edge)
	}
}

// TestFig12dINL checks the Figure 12(d) mechanism: on low-branch-point
// queries with one selective branch, DP switches to index-nested-loop and
// scans far fewer rows than RP.
func TestFig12dINL(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	xm, _ := datasets(t)
	q10, _ := workload.ByID("Q10x")
	dp, err := Run(xm, q10, plan.DataPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(xm, q10, plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.Stats.UsedINL {
		t.Errorf("DP did not use INL on Q10x")
	}
	if dp.Stats.RowsScanned*4 > rp.Stats.RowsScanned {
		t.Errorf("DP INL rows (%d) should be far below RP merge rows (%d)",
			dp.Stats.RowsScanned, rp.Stats.RowsScanned)
	}
}

// TestFig13RelationCounts checks the Section 5.2.6 mechanism: the // branch
// point costs ASR one relation per region while DP uses a single index.
func TestFig13RelationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	xm, _ := datasets(t)
	q12, _ := workload.ByID("Q12x")
	asr, err := Run(xm, q12, plan.ASRPlan)
	if err != nil {
		t.Fatal(err)
	}
	if asr.Stats.RelationsUsed < 6 {
		t.Errorf("ASR on Q12x touched %d relations, want >= 6 (one per region)", asr.Stats.RelationsUsed)
	}
	ji, err := Run(xm, q12, plan.JoinIndexPlan)
	if err != nil {
		t.Fatal(err)
	}
	if ji.Stats.RelationsUsed < asr.Stats.RelationsUsed {
		t.Errorf("JI relations (%d) should be >= ASR's (%d) (composed segments)",
			ji.Stats.RelationsUsed, asr.Stats.RelationsUsed)
	}
}

// TestSec524RecursionCheap checks that leading-// variants cost RP/DP only
// marginally more work (the reverse-path prefix-match property).
func TestSec524RecursionCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	xm, _ := datasets(t)
	q4, _ := workload.ByID("Q4x")
	rq := q4
	rq.XPath = "/" + q4.XPath
	for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
		plain, err := Run(xm, q4, s)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Run(xm, rq, s)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Results != rec.Results {
			t.Fatalf("%v: // variant changed results", s)
		}
		if rec.Stats.RowsScanned > plain.Stats.RowsScanned+plain.Stats.IndexLookups {
			t.Errorf("%v: // variant scanned %d rows vs %d plain", s,
				rec.Stats.RowsScanned, plain.Stats.RowsScanned)
		}
	}
}

// TestSec525CompressionTable checks the compression experiment runs and the
// delta encoding actually shrinks DATAPATHS.
func TestSec525CompressionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	tab, err := Sec525Compression(1)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "differential IdLists") || !strings.Contains(out, "HeadId pruning") {
		t.Fatalf("compression table missing rows:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
