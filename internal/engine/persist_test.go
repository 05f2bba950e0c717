package engine

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// allKinds is the full buildable family (the eight strategy-backing index
// structures; Containment is the non-persisted extension).
var allKinds = []index.Kind{
	index.KindRootPaths, index.KindDataPaths, index.KindEdge,
	index.KindDataGuide, index.KindIndexFabric, index.KindASR,
	index.KindJoinIndex, index.KindXRel,
}

// persistQueries exercise every axis/predicate feature.
var persistQueries = []string{
	`/a/b/c`, `//c`, `//b[@x = 'v0']`, `/a//b[d = 'v2']`,
	`//a[c = 'v0']/b`, `//b[c]`, `/a/d/b[. = 'v1']`, `//a[//c = 'v0']`,
}

// TestPersistReopen builds the full index family into a file, closes, and
// reopens: every strategy must return identical results with zero rebuild
// work (no device writes happen on the reopened database until a
// mutation).
func TestPersistReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	rng := rand.New(rand.NewSource(7))

	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	doc := genDoc(rng, 120)
	db.AddDocument(doc)
	db.AddDocument(genDoc(rng, 60))
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}

	type key struct {
		q     string
		strat int
	}
	want := map[key][]int64{}
	for _, q := range persistQueries {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range diffStrategies {
			ids, err := pinnedIDs(db, pat, s)
			if err != nil {
				t.Fatalf("%s via %v before close: %v", q, s, err)
			}
			want[key{q, int(s)}] = ids
		}
	}
	wantNodes := db.NodeCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NodeCount(); got != wantNodes {
		t.Fatalf("reopened store has %d nodes, want %d", got, wantNodes)
	}
	for _, q := range persistQueries {
		pat, _ := xpath.Parse(q)
		// The restored store must agree with the indices: the naive matcher
		// runs on the deserialised documents.
		wantNaive := re.MatchNaive(pat)
		if !reflect.DeepEqual(wantNaive, want[key{q, int(diffStrategies[0])}]) {
			t.Fatalf("%s: naive on restored store got %v want %v", q, wantNaive, want[key{q, int(diffStrategies[0])}])
		}
		for _, s := range diffStrategies {
			ids, err := pinnedIDs(re, pat, s)
			if err != nil {
				t.Fatalf("%s via %v after reopen: %v", q, s, err)
			}
			if !equalIDs(ids, want[key{q, int(s)}]) {
				t.Fatalf("%s via %v after reopen: got %v want %v", q, s, ids, want[key{q, int(s)}])
			}
		}
	}
	// Zero rebuild work: queries on the reopened database read pages, they
	// never write any.
	if st := re.DeviceStats(); st.Writes != 0 {
		t.Fatalf("reopen performed %d device writes; rebuild suspected", st.Writes)
	}
}

// TestPersistIncrementalAcrossReopen checks that Section 7 incremental
// maintenance keeps working across restarts: insert before close, insert
// after reopen, and verify ROOTPATHS/DATAPATHS against the naive oracle.
func TestPersistIncrementalAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	doc := &xmldb.Document{Root: xmldb.Elem("a",
		xmldb.Elem("b", xmldb.Text("c", "v1")),
		xmldb.Text("c", "v2"),
	)}
	db.AddDocument(doc)
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	sub := &xmldb.Document{Root: xmldb.Elem("b", xmldb.Text("d", "v3"))}
	if err := db.InsertSubtree(doc.Root.ID, sub.Root); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Insert more after reopening; the reopened trees take in-place writes.
	sub2 := &xmldb.Document{Root: xmldb.Elem("b", xmldb.Text("c", "v1"))}
	rootID := re.Store().Docs[0].Root.ID
	if err := re.InsertSubtree(rootID, sub2.Root); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//b`, `//b[c = 'v1']`, `/a/b/d`, `//d[. = 'v3']`} {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Match(re.Store(), pat)
		for _, s := range diffStrategies[:2] { // RP, DP stay maintained
			ids, err := pinnedIDs(re, pat, s)
			if err != nil {
				t.Fatalf("%s via %v: %v", q, s, err)
			}
			if !equalIDs(ids, want) {
				t.Fatalf("%s via %v: got %v want %v", q, s, ids, want)
			}
		}
	}

	// Delete across a third generation.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	victim := re2.Store().Docs[0].Root.Children[0] // the original <b>
	if err := re2.DeleteSubtree(victim.ID); err != nil {
		t.Fatal(err)
	}
	pat, _ := xpath.Parse(`//c`)
	want := naive.Match(re2.Store(), pat)
	ids, err := pinnedIDs(re2, pat, diffStrategies[1])
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, want) {
		t.Fatalf("after delete: got %v want %v", ids, want)
	}
}
