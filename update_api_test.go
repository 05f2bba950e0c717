package twigdb_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	twigdb "repro"
)

func TestInsertDeleteViaPublicAPI(t *testing.T) {
	db := openBook(t, twigdb.RootPaths, twigdb.DataPaths)

	// Section 7's example: insert an author into the existing book.
	res, err := db.Query(`/book/allauthors`)
	if err != nil || res.Count() != 1 {
		t.Fatalf("allauthors: %v %v", res, err)
	}
	allauthorsID := res.IDs[0]

	before, err := db.Query(`//author[fn='mary']`)
	if err != nil || before.Count() != 0 {
		t.Fatalf("pre-insert: %v %v", before, err)
	}

	newID, err := db.Insert(allauthorsID, `<author><fn>mary</fn><ln>shelley</ln></author>`)
	if err != nil {
		t.Fatal(err)
	}
	if newID <= 0 {
		t.Fatalf("new id = %d", newID)
	}

	after, err := db.Query(`//author[fn='mary'][ln='shelley']`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count() != 1 || after.IDs[0] != newID {
		t.Fatalf("post-insert: %v, want [%d]", after.IDs, newID)
	}
	// Oracle agrees (the store itself was updated).
	oracle, err := db.QueryWith(twigdb.Oracle, `//author[fn='mary']`)
	if err != nil || oracle.Count() != 1 {
		t.Fatalf("oracle post-insert: %v %v", oracle, err)
	}

	// Both strategies see the update.
	for _, s := range []twigdb.Strategy{twigdb.StrategyRootPaths, twigdb.StrategyDataPaths} {
		r, err := db.QueryWith(s, `/book//author[ln='shelley']`)
		if err != nil || r.Count() != 1 {
			t.Fatalf("%v post-insert: %v %v", s, r, err)
		}
	}

	// Delete the subtree again.
	if err := db.Delete(newID); err != nil {
		t.Fatal(err)
	}
	gone, err := db.Query(`//author[fn='mary']`)
	if err != nil || gone.Count() != 0 {
		t.Fatalf("post-delete: %v %v", gone, err)
	}
}

func TestUpdateInvalidatesOtherIndices(t *testing.T) {
	db := openBook(t) // all indices
	res, err := db.Query(`/book`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(res.IDs[0], `<appendix>notes</appendix>`); err != nil {
		t.Fatal(err)
	}
	// Edge-family strategies were invalidated and must error until rebuilt.
	if _, err := db.QueryWith(twigdb.StrategyEdge, `/book/appendix`); err == nil {
		t.Fatalf("stale Edge strategy: want error")
	}
	if err := db.Build(twigdb.Edge); err != nil {
		t.Fatal(err)
	}
	r, err := db.QueryWith(twigdb.StrategyEdge, `/book/appendix`)
	if err != nil || r.Count() != 1 {
		t.Fatalf("rebuilt Edge: %v %v", r, err)
	}
}

func TestUpdateErrors(t *testing.T) {
	db := openBook(t, twigdb.RootPaths)
	if _, err := db.Insert(99999, `<x/>`); err == nil {
		t.Fatalf("insert under unknown parent: want error")
	}
	if _, err := db.Insert(1, `<not closed`); err == nil {
		t.Fatalf("insert of bad XML: want error")
	}
	if err := db.Delete(99999); err == nil {
		t.Fatalf("delete of unknown node: want error")
	}
	if err := db.Delete(1); err == nil {
		t.Fatalf("delete of a document root: want error")
	}
}

// TestInsertUnderVirtualRootPersists: a subtree inserted under the virtual
// root (id 0) is a document of its own — answered by the indices and the
// oracle alike, written to the catalog so it survives a reopen, and seen
// by a later Build.
func TestInsertUnderVirtualRootPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zone.twigdb")
	db, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert(0, `<zone><entry>z1</entry><entry>z2</entry></zone>`)
	if err != nil {
		t.Fatal(err)
	}
	const q = `/zone[entry='z2']/entry`
	check := func(db *twigdb.DB, tag string, strategies ...twigdb.Strategy) {
		t.Helper()
		want, err := db.QueryWith(twigdb.Oracle, q)
		if err != nil || want.Count() != 2 {
			t.Fatalf("%s: oracle %v %v, want two entries", tag, want, err)
		}
		if nodes := want.Nodes(); len(nodes) != 2 || nodes[0].Path != "zone/entry" {
			t.Fatalf("%s: oracle nodes %+v", tag, nodes)
		}
		for _, s := range append(strategies, twigdb.Auto) {
			got, err := db.QueryWith(s, q)
			if err != nil || !reflect.DeepEqual(got.IDs, want.IDs) {
				t.Fatalf("%s via %v: %v (%v), oracle %v", tag, s, got, err, want.IDs)
			}
		}
	}
	check(db, "after insert", twigdb.StrategyRootPaths, twigdb.StrategyDataPaths)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after reopen", twigdb.StrategyRootPaths, twigdb.StrategyDataPaths)
	if res, err := re.QueryWith(twigdb.Oracle, `/zone`); err != nil || !reflect.DeepEqual(res.IDs, []int64{id}) {
		t.Fatalf("zone root after reopen: %v %v, want [%d]", res, err, id)
	}
	if err := re.BuildAll(); err != nil {
		t.Fatal(err)
	}
	check(re, "after rebuild",
		twigdb.StrategyRootPaths, twigdb.StrategyDataPaths, twigdb.StrategyEdge,
		twigdb.StrategyDataGuideEdge, twigdb.StrategyFabricEdge,
		twigdb.StrategyASR, twigdb.StrategyJoinIndex, twigdb.StrategyXRel)
}

// TestLoadAfterBuildRefused: bulk loading does not maintain indices, so a
// LoadXML after any Build — Containment alone included — is refused with
// ErrLoadAfterBuild and leaves the database as it was, instead of publishing
// a version whose indices miss the new document. Insert(0, …) is the way in,
// and afterwards every maintained strategy and Auto agree with the oracle.
func TestLoadAfterBuildRefused(t *testing.T) {
	book := func(title string) string {
		return fmt.Sprintf(`<lib><book><title>%s</title></book></lib>`, title)
	}
	for _, kinds := range [][]twigdb.IndexKind{{twigdb.Containment}, {twigdb.RootPaths, twigdb.DataPaths}, nil} {
		db := twigdb.MustOpen(nil)
		if err := db.LoadXMLString(book("a")); err != nil {
			t.Fatal(err)
		}
		var err error
		if kinds == nil {
			err = db.BuildAll()
		} else {
			err = db.Build(kinds...)
		}
		if err != nil {
			t.Fatal(err)
		}
		nodes := db.NodeCount()
		err = db.LoadXMLString(book("b"))
		if !errors.Is(err, twigdb.ErrLoadAfterBuild) || !strings.Contains(err.Error(), "Insert(0, ") {
			t.Fatalf("load after Build(%v): got %v, want ErrLoadAfterBuild naming Insert(0, …)", kinds, err)
		}
		if n := db.NodeCount(); n != nodes {
			t.Fatalf("refused load after Build(%v) changed the node count %d -> %d", kinds, nodes, n)
		}
		if kinds != nil {
			continue
		}
		if _, err := db.Insert(0, book("b")); err != nil {
			t.Fatal(err)
		}
		for q, n := range map[string]int{`/lib/book/title`: 2, `//book[title='b']`: 1} {
			want, err := db.QueryWith(twigdb.Oracle, q)
			if err != nil || want.Count() != n {
				t.Fatalf("%s: oracle %v %v, want %d ids", q, want, err, n)
			}
			for _, s := range []twigdb.Strategy{twigdb.Auto, twigdb.StrategyRootPaths, twigdb.StrategyDataPaths} {
				got, err := db.QueryWith(s, q)
				if err != nil || !reflect.DeepEqual(got.IDs, want.IDs) {
					t.Fatalf("%s via %v: %v (%v), oracle %v", q, s, got, err, want.IDs)
				}
			}
		}
	}
}
