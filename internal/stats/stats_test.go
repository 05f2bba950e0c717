package stats

import (
	"testing"

	"repro/internal/pathdict"
	"repro/internal/xmldb"
)

func testStore(t *testing.T) (*xmldb.Store, *pathdict.Dict, *Stats) {
	t.Helper()
	doc, err := xmldb.ParseString(`
<site>
 <regions>
  <namerica><item><q>1</q></item><item><q>2</q></item></namerica>
  <europe><item><q>2</q></item></europe>
 </regions>
</site>`)
	if err != nil {
		t.Fatal(err)
	}
	s := xmldb.NewStore()
	s.AddDocument(doc)
	d := pathdict.NewDict()
	return s, d, Collect(s, d)
}

func compilePat(t *testing.T, d *pathdict.Dict, descs []bool, labels []string) []pathdict.PStep {
	t.Helper()
	pat, ok := pathdict.CompileSteps(d, descs, labels)
	if !ok {
		t.Fatalf("unknown label in %v", labels)
	}
	return pat
}

func TestPathAndValueCounts(t *testing.T) {
	_, d, st := testStore(t)
	qPath := d.MustSyms("site", "regions", "namerica", "item", "q")
	id, ok := st.RootedPaths().Lookup(qPath)
	if !ok {
		t.Fatalf("rooted path not registered")
	}
	if st.PathCount(id) != 2 {
		t.Fatalf("PathCount = %d, want 2", st.PathCount(id))
	}
	if st.ValueCount(id, "2") != 1 || st.ValueCount(id, "1") != 1 || st.ValueCount(id, "9") != 0 {
		t.Fatalf("value counts wrong")
	}
}

func TestEstimateBranch(t *testing.T) {
	_, d, st := testStore(t)
	// //item/q matches both regions' paths.
	pat := compilePat(t, d, []bool{true, false}, []string{"item", "q"})
	if got := st.EstimateBranch(pat, false, ""); got != 3 {
		t.Fatalf("estimate(//item/q) = %d, want 3", got)
	}
	if got := st.EstimateBranch(pat, true, "2"); got != 2 {
		t.Fatalf("estimate(//item/q='2') = %d, want 2", got)
	}
	// Anchored pattern restricted to namerica.
	pat = compilePat(t, d, []bool{false, false, false, false, false},
		[]string{"site", "regions", "namerica", "item", "q"})
	if got := st.EstimateBranch(pat, false, ""); got != 2 {
		t.Fatalf("anchored estimate = %d, want 2", got)
	}
	// Cache hit returns the same value.
	if got := st.EstimateBranch(pat, false, ""); got != 2 {
		t.Fatalf("cached estimate = %d, want 2", got)
	}
}

func TestEstimateMatchesProbeRows(t *testing.T) {
	// The estimate must equal the exact number of rows a ROOTPATHS probe
	// visits — the planner relies on exactness for the INL decision.
	_, d, st := testStore(t)
	pat := compilePat(t, d, []bool{true}, []string{"item"})
	if got := st.EstimateBranch(pat, false, ""); got != 3 {
		t.Fatalf("estimate(//item) = %d, want 3 items", got)
	}
}

func TestEstimateHitPathDoesNotAllocate(t *testing.T) {
	// The estimate memo sits on the query hot path; a cache hit must not
	// allocate (the interned-pattern struct key replaced the old
	// fmt-style string key precisely for this).
	_, d, st := testStore(t)
	pat := compilePat(t, d, []bool{true, false}, []string{"item", "q"})
	st.EstimateBranch(pat, true, "2") // populate
	st.CountMatchingRootedPaths(pat)
	if n := testing.AllocsPerRun(100, func() {
		st.EstimateBranch(pat, true, "2")
	}); n != 0 {
		t.Fatalf("EstimateBranch cache hit allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		st.CountMatchingRootedPaths(pat)
	}); n != 0 {
		t.Fatalf("CountMatchingRootedPaths cache hit allocates %.1f times per call", n)
	}
}

func TestMatchingRootedPaths(t *testing.T) {
	_, d, st := testStore(t)
	pat := compilePat(t, d, []bool{true}, []string{"item"})
	got := st.MatchingRootedPaths(pat)
	if len(got) != 2 {
		t.Fatalf("matching rooted paths = %d, want 2 (namerica, europe)", len(got))
	}
}

// TestCollectorEqualsCollect: nodes handed to a Collector parent before
// child, each with its parent's rooted path, count what Collect counts,
// and NodeCount is the number of nodes.
func TestCollectorEqualsCollect(t *testing.T) {
	s, d, want := testStore(t)
	c := NewCollector()
	var walk func(n *xmldb.Node, parent pathdict.PathID)
	walk = func(n *xmldb.Node, parent pathdict.PathID) {
		id := c.Node(parent, d.Intern(n.Label), n.HasValue, []byte(n.Value))
		for _, ch := range n.Children {
			walk(ch, id)
		}
	}
	for _, doc := range s.Docs {
		walk(doc.Root, NoPath)
	}
	got := c.Stats()
	if got.RootedPaths().Len() != want.RootedPaths().Len() {
		t.Fatalf("%d rooted paths, Collect has %d", got.RootedPaths().Len(), want.RootedPaths().Len())
	}
	want.RootedPaths().All(func(wid pathdict.PathID, p pathdict.Path) {
		id, ok := got.RootedPaths().Lookup(p)
		if !ok || got.PathCount(id) != want.PathCount(wid) {
			t.Fatalf("path %s: counted %d, Collect says %d", p.String(d), got.PathCount(id), want.PathCount(wid))
		}
	})
	pairs := 0
	want.Values(func(p pathdict.Path, v string, n int64) {
		id, _ := got.RootedPaths().Lookup(p)
		if got.ValueCount(id, v) != n {
			t.Fatalf("%s = %q: counted %d, Collect says %d", p.String(d), v, got.ValueCount(id, v), n)
		}
		pairs++
	})
	got.Values(func(pathdict.Path, string, int64) { pairs-- })
	if pairs != 0 {
		t.Fatalf("the collector counts %d (path, value) pairs more than Collect", -pairs)
	}
	if n := got.NodeCount(); n != int64(s.NodeCount()) || want.NodeCount() != n {
		t.Fatalf("NodeCount %d (Collect %d), store has %d", n, want.NodeCount(), s.NodeCount())
	}
}
