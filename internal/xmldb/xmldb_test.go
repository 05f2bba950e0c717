package xmldb

import (
	"strings"
	"testing"
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
 <chapter>
  <title>XML</title>
  <section><head>Origins</head></section>
 </chapter>
</book>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestParsePaperExample(t *testing.T) {
	doc := mustParse(t, bookXML)
	if doc.Root.Label != "book" {
		t.Fatalf("root label = %q, want book", doc.Root.Label)
	}
	if got := len(doc.Root.Children); got != 4 {
		t.Fatalf("book has %d children, want 4", got)
	}
	title := doc.Root.Children[0]
	if title.Label != "title" || title.Value != "XML" || !title.HasValue {
		t.Fatalf("title = %+v", title)
	}
	aa := doc.Root.Children[1]
	if aa.Label != "allauthors" || len(aa.Children) != 3 {
		t.Fatalf("allauthors = %+v", aa)
	}
	a2 := aa.Children[1]
	if a2.Children[0].Value != "john" || a2.Children[1].Value != "doe" {
		t.Fatalf("second author = %s", Dump(a2))
	}
}

func TestStoreNumbering(t *testing.T) {
	s := NewStore()
	doc := mustParse(t, bookXML)
	s.AddDocument(doc)

	if doc.Root.ID != 1 {
		t.Fatalf("root id = %d, want 1 (pre-order)", doc.Root.ID)
	}
	// Pre-order: ids strictly increase along any walk.
	last := int64(0)
	seen := map[int64]bool{}
	s.Walk(func(n *Node) bool {
		if n.ID <= last {
			t.Fatalf("pre-order violated at node %s#%d after %d", n.Label, n.ID, last)
		}
		if seen[n.ID] {
			t.Fatalf("duplicate id %d", n.ID)
		}
		seen[n.ID] = true
		last = n.ID
		return true
	})
	if s.NodeCount() != len(seen) {
		t.Fatalf("NodeCount=%d, walked %d", s.NodeCount(), len(seen))
	}
	for id := range seen {
		if s.NodeByID(id) == nil {
			t.Fatalf("NodeByID(%d) = nil", id)
		}
	}
	if s.NodeByID(0) != s.VirtualRoot {
		t.Fatalf("NodeByID(0) != virtual root")
	}
}

func TestStoreMultipleDocuments(t *testing.T) {
	s := NewStore()
	d1 := mustParse(t, `<a><b>x</b></a>`)
	d2 := mustParse(t, `<c/>`)
	s.AddDocument(d1)
	s.AddDocument(d2)
	if d1.Root.ID != 1 || d2.Root.ID != 3 {
		t.Fatalf("ids: d1=%d d2=%d, want 1 and 3", d1.Root.ID, d2.Root.ID)
	}
	if len(s.VirtualRoot.Children) != 2 {
		t.Fatalf("virtual root children = %d", len(s.VirtualRoot.Children))
	}
	if s.Parent(d1.Root) != s.VirtualRoot {
		t.Fatalf("document root not parented at virtual root")
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<person id="p7"><profile income="46814.17"/></person>`)
	id := doc.Root.Children[0]
	if id.Label != "@id" || id.Value != "p7" {
		t.Fatalf("attr node = %+v", id)
	}
	profile := doc.Root.Children[1]
	inc := profile.Children[0]
	if inc.Label != "@income" || inc.Value != "46814.17" || !inc.IsAttr() {
		t.Fatalf("income attr = %+v", inc)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a>`,
		`<a></a><b></b>`,
		`<a>`,
		`text only`,
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): want error, got nil", c)
		}
	}
}

func TestParseEntitiesAndMixed(t *testing.T) {
	doc := mustParse(t, `<a>x &amp; y<b>z</b></a>`)
	if doc.Root.Value != "x & y" {
		t.Fatalf("mixed content value = %q", doc.Root.Value)
	}
	if doc.Root.Children[0].Value != "z" {
		t.Fatalf("child value = %q", doc.Root.Children[0].Value)
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	doc := mustParse(t, bookXML)
	var b strings.Builder
	if err := WriteXML(&b, doc.Root); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	doc2, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, b.String())
	}
	if Dump(doc.Root) != Dump(doc2.Root) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", Dump(doc.Root), Dump(doc2.Root))
	}
}

func TestWriteXMLEscaping(t *testing.T) {
	n := Elem("r", Text("t", `a<b&"c'`), Attr("k", `v<&>`))
	var b strings.Builder
	if err := WriteXML(&b, n); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	doc, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, b.String())
	}
	var tv, av string
	for _, c := range doc.Root.Children {
		switch c.Label {
		case "t":
			tv = c.Value
		case "@k":
			av = c.Value
		}
	}
	if tv != `a<b&"c'` || av != `v<&>` {
		t.Fatalf("escaped round trip: t=%q k=%q", tv, av)
	}
}

func TestNodePath(t *testing.T) {
	s := NewStore()
	doc := mustParse(t, bookXML)
	s.AddDocument(doc)
	fn := doc.Root.Children[1].Children[0].Children[0]
	if got := s.Path(fn); got != "book/allauthors/author/fn" {
		t.Fatalf("Path = %q", got)
	}
}

func TestCollectStats(t *testing.T) {
	s := NewStore()
	s.AddDocument(mustParse(t, bookXML))
	st := s.CollectStats()
	if st.Nodes != s.NodeCount() {
		t.Fatalf("stats nodes = %d, want %d", st.Nodes, s.NodeCount())
	}
	if st.MaxDepth != 4 { // book/chapter/section/head
		t.Fatalf("max depth = %d, want 4", st.MaxDepth)
	}
	// distinct root paths: book, book/title, book/allauthors,
	// book/allauthors/author, .../fn, .../ln, book/year, book/chapter,
	// book/chapter/title, book/chapter/section, book/chapter/section/head
	if st.DistinctRootSPs != 11 {
		t.Fatalf("distinct root schema paths = %d, want 11", st.DistinctRootSPs)
	}
}

func TestBuilders(t *testing.T) {
	n := Elem("a", Text("b", "v"), Attr("c", "w"))
	s := NewStore()
	s.AddDocument(&Document{Root: n})
	if s.Parent(n.Children[0]) != n || s.Parent(n.Children[1]) != n {
		t.Fatalf("builder children not parented at their builder")
	}
	if !n.Children[1].IsAttr() || n.Children[0].IsAttr() {
		t.Fatalf("IsAttr misclassifies")
	}
}

func TestWalkPrune(t *testing.T) {
	s := NewStore()
	s.AddDocument(mustParse(t, bookXML))
	visited := 0
	s.Walk(func(n *Node) bool {
		visited++
		return n.Label != "allauthors" // prune the authors subtree
	})
	if visited >= s.NodeCount() {
		t.Fatalf("prune did not reduce visit count: %d of %d", visited, s.NodeCount())
	}
}

// TestCloneForWriteIsolation: mutations applied to a clone must be
// invisible through the original store, and vice versa — document
// granularity copy-on-write for the engine's snapshots.
func TestCloneForWriteIsolation(t *testing.T) {
	s := NewStore()
	s.AddDocument(&Document{Root: Elem("a", Text("b", "1"), Elem("c", Text("d", "2")))})
	s.AddDocument(&Document{Root: Elem("x", Text("y", "9"))})
	c := s.NodeByID(3) // <c>
	if c == nil || c.Label != "c" {
		t.Fatalf("node 3 = %+v, want <c>", c)
	}

	clone, target, err := s.CloneForWrite(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if target == c {
		t.Fatal("clone returned the original node for a copied document")
	}
	if target.ID != c.ID || target.Label != "c" {
		t.Fatalf("clone target = #%d %q, want #%d %q", target.ID, target.Label, c.ID, c.Label)
	}
	// Second document untouched: shared by pointer.
	if clone.Docs[1] != s.Docs[1] {
		t.Fatal("unaffected document was copied")
	}
	// Attach into the clone; the original must not see it.
	sub := Elem("e", Text("f", "3"))
	if err := clone.AttachSubtree(target, sub); err != nil {
		t.Fatal(err)
	}
	if got := clone.NodeCount(); got != s.NodeCount()+2 {
		t.Fatalf("clone NodeCount = %d, want %d", got, s.NodeCount()+2)
	}
	if s.NodeByID(sub.ID) != nil {
		t.Fatal("original store sees the clone's new subtree")
	}
	if len(c.Children) != 1 {
		t.Fatalf("original <c> grew a child (%d children)", len(c.Children))
	}
	if len(target.Children) != 2 {
		t.Fatalf("clone <c> has %d children, want 2", len(target.Children))
	}
	// Parent chains inside the copied document are internally consistent.
	for n := target; n != nil && n.ID != 0; n = clone.Parent(n) {
		if clone.NodeByID(n.ID) != n {
			t.Fatalf("clone byID[%d] does not resolve to the copied node", n.ID)
		}
	}
	// Detach in a further clone; the first clone keeps the subtree.
	clone2, t2, err := clone.CloneForWrite(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone2.DetachSubtree(t2); err != nil {
		t.Fatal(err)
	}
	if clone.NodeByID(sub.ID) == nil {
		t.Fatal("detach in clone2 leaked into clone")
	}
	if clone2.NodeByID(sub.ID) != nil {
		t.Fatal("clone2 still resolves the detached subtree")
	}
	if clone2.NextID() != clone.NextID() {
		t.Fatalf("NextID diverged: %d vs %d", clone2.NextID(), clone.NextID())
	}
}

// TestCloneForWriteVirtualRoot: cloning for the virtual root shares every
// document and returns the fresh root.
func TestCloneForWriteVirtualRoot(t *testing.T) {
	s := NewStore()
	s.AddDocument(&Document{Root: Elem("a")})
	clone, vr, err := s.CloneForWrite(0)
	if err != nil {
		t.Fatal(err)
	}
	if vr.ID != 0 || vr == s.VirtualRoot {
		t.Fatalf("virtual-root clone target = %+v", vr)
	}
	if clone.Docs[0] != s.Docs[0] {
		t.Fatal("document copied for a virtual-root clone")
	}
	clone.AddDocument(&Document{Root: Elem("b")})
	if len(s.Docs) != 1 || len(clone.Docs) != 2 {
		t.Fatalf("doc counts: original %d (want 1), clone %d (want 2)", len(s.Docs), len(clone.Docs))
	}
}
