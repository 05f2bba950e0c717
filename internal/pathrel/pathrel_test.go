package pathrel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pathdict"
	"repro/internal/xmldb"
)

// paperStore builds the fragment of Figure 1 that the paper's Figures 2, 4,
// and 5 enumerate: book(1) -> title(2)="XML", allauthors(5) -> author(6) ->
// fn(7)="jane", ln(10)="poe". Extra siblings pad the ids to match.
func paperStore(t *testing.T) *xmldb.Store {
	t.Helper()
	doc, err := xmldb.ParseString(`
<book>
 <title>XML</title>
 <pad1/><pad2/>
 <allauthors>
  <author><fn>jane</fn><pad3/><pad4/><ln>poe</ln></author>
 </allauthors>
</book>`)
	if err != nil {
		t.Fatal(err)
	}
	s := xmldb.NewStore()
	s.AddDocument(doc)
	return s
}

func rowString(d *pathdict.Dict, r Row) string {
	val := "null"
	if r.HasValue {
		val = r.Value
	}
	ids := make([]string, len(r.IDs))
	for i, id := range r.IDs {
		ids[i] = fmt.Sprint(id)
	}
	return fmt.Sprintf("%d|%s|%s|[%s]", r.HeadID, r.Path.String(d), val, strings.Join(ids, ","))
}

func TestEmitRootPathsMatchesFigure4(t *testing.T) {
	s := paperStore(t)
	d := pathdict.NewDict()
	got := map[string]bool{}
	Emit(s, d, nil, false, func(r Row) { got[rowString(d, r)] = true })

	// Figure 4 rows (HeadId dropped = 0), with our padded ids:
	want := []string{
		"0|book|null|[1]",
		"0|book/title|null|[1,2]",
		"0|book/title|XML|[1,2]",
		"0|book/allauthors|null|[1,5]",
		"0|book/allauthors/author|null|[1,5,6]",
		"0|book/allauthors/author/fn|null|[1,5,6,7]",
		"0|book/allauthors/author/fn|jane|[1,5,6,7]",
		"0|book/allauthors/author/ln|null|[1,5,6,10]",
		"0|book/allauthors/author/ln|poe|[1,5,6,10]",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing row %s\nhave:\n%s", w, keys(got))
		}
	}
}

func TestEmitAllPathsMatchesFigure5(t *testing.T) {
	s := paperStore(t)
	d := pathdict.NewDict()
	got := map[string]bool{}
	Emit(s, d, nil, true, func(r Row) { got[rowString(d, r)] = true })

	// Figure 5 rows for heads 1 and 5 (SchemaPath stored reversed there;
	// we check the forward form).
	want := []string{
		"1|book|null|[]",
		"1|book/title|null|[2]",
		"1|book/title|XML|[2]",
		"1|book/allauthors|null|[5]",
		"1|book/allauthors/author|null|[5,6]",
		"1|book/allauthors/author/fn|null|[5,6,7]",
		"1|book/allauthors/author/fn|jane|[5,6,7]",
		"1|book/allauthors/author/ln|null|[5,6,10]",
		"1|book/allauthors/author/ln|poe|[5,6,10]",
		"5|allauthors|null|[]",
		"5|allauthors/author|null|[6]",
		"5|allauthors/author/fn|null|[6,7]",
		"5|allauthors/author/fn|jane|[6,7]",
		"5|allauthors/author/ln|null|[6,10]",
		"5|allauthors/author/ln|poe|[6,10]",
		// and the virtual-root rows of Figure 4
		"0|book/allauthors/author/fn|jane|[1,5,6,7]",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing row %s\nhave:\n%s", w, keys(got))
		}
	}
}

func keys(m map[string]bool) string {
	var b strings.Builder
	for k := range m {
		b.WriteString("  " + k + "\n")
	}
	return b.String()
}

// countRows is the closed form of what the two enumerations produce: one
// row per node (two with a value) for the virtual root, times depth+1 with
// every head.
func countRows(store *xmldb.Store) (rootRows, allRows int64) {
	var rec func(n *xmldb.Node, d int)
	rec = func(n *xmldb.Node, d int) {
		rows := int64(1)
		if n.HasValue {
			rows = 2
		}
		rootRows += rows
		allRows += rows * int64(d+1) // d real heads + the virtual root
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	for _, doc := range store.Docs {
		rec(doc.Root, 1)
	}
	return rootRows, allRows
}

func TestCountRowsAgreesWithEmit(t *testing.T) {
	s := paperStore(t)
	d := pathdict.NewDict()
	var root, all int64
	Emit(s, d, nil, false, func(Row) { root++ })
	Emit(s, d, nil, true, func(Row) { all++ })
	gotRoot, gotAll := countRows(s)
	if gotRoot != root || gotAll != all {
		t.Fatalf("countRows = (%d, %d), emitted (%d, %d)", gotRoot, gotAll, root, all)
	}
	if all <= root {
		t.Fatalf("all-paths (%d) should exceed root-paths (%d)", all, root)
	}
}

func TestPosID(t *testing.T) {
	// Virtual-root row: position i is IDs[i].
	r := Row{HeadID: 0, IDs: []int64{1, 5, 6}}
	if r.PosID(0) != 1 || r.PosID(2) != 6 {
		t.Fatalf("vroot PosID wrong")
	}
	// Real head: position 0 is the head, then IDs.
	r = Row{HeadID: 5, IDs: []int64{6, 7}}
	if r.PosID(0) != 5 || r.PosID(1) != 6 || r.PosID(2) != 7 {
		t.Fatalf("head PosID wrong")
	}
	if r.LastID() != 7 {
		t.Fatalf("LastID = %d", r.LastID())
	}
	if (Row{HeadID: 9}).LastID() != 9 {
		t.Fatalf("LastID of head-only row")
	}
}

func TestRowsPerNodeEqualsDepthPlusOne(t *testing.T) {
	s := xmldb.NewStore()
	doc, err := xmldb.ParseString(`<a><b><c><e>v</e></c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	s.AddDocument(doc)
	d := pathdict.NewDict()
	perLast := map[int64]int{}
	Emit(s, d, nil, true, func(r Row) {
		if !r.HasValue {
			perLast[r.LastID()]++
		}
	})
	// node e is at depth 4: rows headed at a, b, c, e, and the virtual
	// root = 5 chains ending at e.
	eID := doc.Root.Children[0].Children[0].Children[0].ID
	if perLast[eID] != 5 {
		t.Fatalf("chains ending at e = %d, want 5", perLast[eID])
	}
}
