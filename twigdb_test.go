package twigdb_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	twigdb "repro"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
)

const bookXML = `
<book>
 <title>XML</title>
 <allauthors>
  <author><fn>jane</fn><ln>poe</ln></author>
  <author><fn>john</fn><ln>doe</ln></author>
  <author><fn>jane</fn><ln>doe</ln></author>
 </allauthors>
 <year>2000</year>
</book>`

func openBook(t testing.TB, kinds ...twigdb.IndexKind) *twigdb.DB {
	t.Helper()
	db := twigdb.MustOpen(&twigdb.Options{BufferPoolBytes: 8 << 20})
	if err := db.LoadXMLString(bookXML); err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 {
		if err := db.BuildAll(); err != nil {
			t.Fatal(err)
		}
	} else if err := db.Build(kinds...); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickStartFlow(t *testing.T) {
	db := openBook(t, twigdb.RootPaths, twigdb.DataPaths)
	res, err := db.Query(`/book//author[fn='jane' and ln='doe']`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1 {
		t.Fatalf("count = %d, want 1", res.Count())
	}
	nodes := res.Nodes()
	if len(nodes) != 1 || nodes[0].Label != "author" || nodes[0].Path != "book/allauthors/author" {
		t.Fatalf("nodes = %+v", nodes)
	}
	var b strings.Builder
	if err := res.WriteXML(&b, res.IDs[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<fn>jane</fn>") {
		t.Fatalf("WriteXML = %s", b.String())
	}
	if s := res.String(); !strings.Contains(s, "1 match(es)") {
		t.Fatalf("String = %q", s)
	}
}

func TestAllStrategiesAgreeViaPublicAPI(t *testing.T) {
	db := openBook(t)
	strategies := []twigdb.Strategy{
		twigdb.StrategyRootPaths, twigdb.StrategyDataPaths,
		twigdb.StrategyEdge, twigdb.StrategyDataGuideEdge,
		twigdb.StrategyFabricEdge, twigdb.StrategyASR,
		twigdb.StrategyJoinIndex, twigdb.StrategyXRel, twigdb.Oracle,
	}
	queries := []string{
		`/book`, `//author[fn='jane']`, `/book[title='XML']//author[ln='doe']`,
	}
	for _, q := range queries {
		var want []int64
		for i, s := range strategies {
			res, err := db.QueryWith(s, q)
			if err != nil {
				t.Fatalf("%v: %s: %v", s, q, err)
			}
			if i == 0 {
				want = res.IDs
				continue
			}
			if len(res.IDs) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(res.IDs, want) {
				t.Fatalf("%v: %s = %v, want %v", s, q, res.IDs, want)
			}
		}
	}
}

func TestAutoStrategySelection(t *testing.T) {
	db := openBook(t, twigdb.RootPaths)
	res, err := db.Query(`/book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != twigdb.StrategyRootPaths {
		t.Fatalf("auto picked %v, want RP", res.Strategy)
	}
	// With both path indices built, the cost-based planner picks one of
	// them (never a baseline) and reports the executed plan tree.
	db2 := openBook(t, twigdb.RootPaths, twigdb.DataPaths, twigdb.Edge)
	res, err = db2.Query(`/book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != twigdb.StrategyDataPaths && res.Strategy != twigdb.StrategyRootPaths {
		t.Fatalf("auto picked %v, want a path index", res.Strategy)
	}
	if res.Plan == nil || res.Plan.Op != "dedup" {
		t.Fatalf("Result.Plan not attached: %+v", res.Plan)
	}
	if got := res.Plan.Render(); !strings.Contains(got, "act=") || !strings.Contains(got, "scan") {
		t.Fatalf("plan rendering missing actuals:\n%s", got)
	}
}

func TestQueryErrors(t *testing.T) {
	db := twigdb.MustOpen(nil)
	if err := db.LoadXMLString(bookXML); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`/book`); err == nil {
		t.Fatalf("query with no index: want error")
	}
	if err := db.Build(twigdb.RootPaths); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`not a query`); err == nil {
		t.Fatalf("bad query: want parse error")
	}
	if _, err := db.QueryWith(twigdb.StrategyASR, `/book`); err == nil {
		t.Fatalf("strategy without its index: want error")
	}
}

func TestLoadErrors(t *testing.T) {
	db := twigdb.MustOpen(nil)
	if err := db.LoadXMLString(`<unclosed>`); err == nil {
		t.Fatalf("bad XML: want error")
	}
}

// TestFaultInjectionNeedsPath: faults are injected below the file's page
// checksums, so an in-memory database cannot take them; Open says so,
// typed, rather than serving silently corrupted pages.
func TestFaultInjectionNeedsPath(t *testing.T) {
	db, err := twigdb.Open(&twigdb.Options{FaultInjection: &twigdb.FaultInjection{
		Specs: []twigdb.FaultSpec{{Kind: twigdb.FaultBitFlip}},
	}})
	if !errors.Is(err, engine.ErrFaultsNeedPath) || db != nil {
		t.Fatalf("in-memory Open with faults: got %v, %v; want ErrFaultsNeedPath", db, err)
	}
}

func TestIndexSpaces(t *testing.T) {
	db := openBook(t)
	spaces := db.IndexSpaces()
	if len(spaces) != 8 {
		t.Fatalf("spaces = %d entries, want 8", len(spaces))
	}
	byName := map[string]twigdb.IndexSpace{}
	for _, s := range spaces {
		if s.Bytes <= 0 || s.Pages <= 0 {
			t.Fatalf("empty space report: %+v", s)
		}
		byName[s.Name] = s
	}
	if byName["DATAPATHS"].Entries <= byName["ROOTPATHS"].Entries {
		t.Fatalf("DATAPATHS should have more entries than ROOTPATHS: %+v vs %+v",
			byName["DATAPATHS"], byName["ROOTPATHS"])
	}
	if byName["JoinIndex"].Trees != 2*byName["ASR"].Trees {
		t.Fatalf("JI should have twice ASR's trees")
	}
}

func TestCompressionOptions(t *testing.T) {
	// SchemaPathId compression: the public contract is that //-free
	// queries answer as ever and // queries fail loudly.
	db := twigdb.MustOpen(&twigdb.Options{CompressSchemaPaths: true})
	if err := db.LoadXMLString(bookXML); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	const exact = `/book/allauthors/author[fn = 'jane']/ln`
	want, err := db.QueryWith(twigdb.Oracle, exact)
	if err != nil || len(want.IDs) == 0 {
		t.Fatalf("oracle: %v %v", want, err)
	}
	for _, s := range []twigdb.Strategy{twigdb.Auto, twigdb.StrategyRootPaths, twigdb.StrategyDataPaths} {
		if got, err := db.QueryWith(s, exact); err != nil || !reflect.DeepEqual(got.IDs, want.IDs) {
			t.Errorf("%s via %v on compressed indices: %v, %v; oracle %v", exact, s, got, err, want.IDs)
		}
	}
	if _, err := db.QueryWith(twigdb.StrategyRootPaths, `//author`); err == nil {
		t.Fatalf("// query on compressed index: want error")
	}
}

func TestKindAndStrategyStrings(t *testing.T) {
	if twigdb.DataPaths.String() != "DATAPATHS" || twigdb.RootPaths.String() != "ROOTPATHS" {
		t.Fatalf("kind strings wrong")
	}
	if twigdb.StrategyDataGuideEdge.String() != "DG+Edge" || twigdb.Auto.String() != "Auto" {
		t.Fatalf("strategy strings wrong")
	}
	if twigdb.Oracle.String() != "Oracle" {
		t.Fatalf("oracle string wrong")
	}
}

// TestPublicEnumsMirrorInternal pins the order-preserving correspondence the
// public enums are converted by: every IndexKind names the index.Kind of the
// same value, every pinned Strategy the plan.Strategy one below it, and
// values outside either range take the existing error paths instead of
// indexing past a table.
func TestPublicEnumsMirrorInternal(t *testing.T) {
	kinds := []twigdb.IndexKind{
		twigdb.RootPaths, twigdb.DataPaths, twigdb.Edge, twigdb.DataGuide, twigdb.IndexFabric,
		twigdb.ASR, twigdb.JoinIndex, twigdb.XRel, twigdb.Containment,
	}
	if len(kinds) != int(index.NumKinds) {
		t.Fatalf("%d public index kinds, %d internal", len(kinds), index.NumKinds)
	}
	for i, k := range kinds {
		if int(k) != i || k.String() != index.Kind(i).String() || k.String() == "unknown" {
			t.Errorf("IndexKind %d (%v) does not mirror index.Kind %d (%v)", k, k, i, index.Kind(i))
		}
	}
	pinned := []twigdb.Strategy{
		twigdb.StrategyRootPaths, twigdb.StrategyDataPaths, twigdb.StrategyEdge, twigdb.StrategyDataGuideEdge,
		twigdb.StrategyFabricEdge, twigdb.StrategyASR, twigdb.StrategyJoinIndex, twigdb.StrategyXRel,
		twigdb.StrategyStructuralJoin,
	}
	if len(pinned) != int(plan.NumStrategies) {
		t.Fatalf("%d public pinned strategies, %d internal", len(pinned), plan.NumStrategies)
	}
	if twigdb.Auto != 0 || twigdb.Oracle != pinned[len(pinned)-1]+1 {
		t.Errorf("Auto = %d, Oracle = %d: the pinned strategies must sit between them", twigdb.Auto, twigdb.Oracle)
	}
	for i, s := range pinned {
		if int(s) != i+1 || s.String() != plan.Strategy(i).String() || s.String() == "unknown" {
			t.Errorf("Strategy %d (%v) does not mirror plan.Strategy %d (%v)", s, s, i, plan.Strategy(i))
		}
	}

	db := openBook(t)
	for _, q := range []string{`//author[fn = 'jane']`, `/book/title`} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		again, err := db.QueryWith(res.Strategy, q)
		if err != nil || again.Strategy != res.Strategy || !reflect.DeepEqual(again.IDs, res.IDs) {
			t.Errorf("%s: Auto reported %v, pinning it gives %v, %v", q, res.Strategy, again, err)
		}
	}
	for _, s := range db.IndexSpaces() {
		if s.Kind.String() != s.Name {
			t.Errorf("IndexSpaces: kind %v carries name %q", s.Kind, s.Name)
		}
	}

	bad := twigdb.Oracle + 1
	if twigdb.IndexKind(99).String() != "unknown" || twigdb.IndexKind(-1).String() != "unknown" || bad.String() != "unknown" {
		t.Errorf("out-of-range values must print as unknown")
	}
	if err := db.Build(twigdb.IndexKind(99)); err == nil || !strings.Contains(err.Error(), "unknown index kind") {
		t.Errorf("Build(99) = %v, want an unknown-index-kind error", err)
	}
	if _, err := db.QueryWith(bad, `/book`); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("QueryWith(%d) = %v, want an unknown-strategy error", bad, err)
	}
	if _, err := db.Explain(twigdb.Strategy(-3), `/book`); err == nil {
		t.Errorf("Explain(-3): want an error")
	}
}

func TestNodeCount(t *testing.T) {
	db := openBook(t, twigdb.RootPaths)
	if db.NodeCount() != 13 { // book title allauthors 3*(author fn ln) year
		t.Fatalf("NodeCount = %d", db.NodeCount())
	}
}
