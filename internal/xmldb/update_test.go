package xmldb

import "testing"

func updateStore(t *testing.T) (*Store, *Document) {
	t.Helper()
	s := NewStore()
	doc, err := ParseString(`<a><b>x</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	s.AddDocument(doc)
	return s, doc
}

func TestAttachSubtree(t *testing.T) {
	s, doc := updateStore(t)
	before := s.NodeCount()
	sub := Elem("d", Text("e", "v"))
	if err := s.AttachSubtree(doc.Root, sub); err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != before+2 {
		t.Fatalf("node count = %d, want %d", s.NodeCount(), before+2)
	}
	if sub.ID == 0 || sub.Children[0].ID != sub.ID+1 {
		t.Fatalf("ids not assigned pre-order: %d, %d", sub.ID, sub.Children[0].ID)
	}
	if s.Parent(sub) != doc.Root {
		t.Fatalf("parent not set")
	}
	if s.NodeByID(sub.ID) != sub {
		t.Fatalf("not registered")
	}
	// New ids exceed all previous ones.
	s.Walk(func(n *Node) bool {
		if n != sub && n != sub.Children[0] && n.ID >= sub.ID {
			t.Fatalf("old node %s#%d >= new id %d", n.Label, n.ID, sub.ID)
		}
		return true
	})
}

func TestAttachSubtreeErrors(t *testing.T) {
	s, doc := updateStore(t)
	// Foreign parent.
	foreign := Elem("zz")
	if err := s.AttachSubtree(foreign, Elem("x")); err == nil {
		t.Fatalf("foreign parent: want error")
	}
	if err := s.AttachSubtree(nil, Elem("x")); err == nil {
		t.Fatalf("nil parent: want error")
	}
	// Already-attached subtree.
	b := doc.Root.Children[0]
	if err := s.AttachSubtree(doc.Root, b); err == nil {
		t.Fatalf("re-attach: want error")
	}
}

func TestDetachSubtree(t *testing.T) {
	s, doc := updateStore(t)
	b := doc.Root.Children[0]
	bID := b.ID
	if err := s.DetachSubtree(b); err != nil {
		t.Fatal(err)
	}
	if s.NodeByID(bID) != nil {
		t.Fatalf("detached node still registered")
	}
	if len(doc.Root.Children) != 1 || doc.Root.Children[0].Label != "c" {
		t.Fatalf("children after detach = %v", doc.Root.Children)
	}
	if s.Parent(b) != nil {
		t.Fatalf("detached node still resolves a parent")
	}
}

func TestDetachSubtreeErrors(t *testing.T) {
	s, doc := updateStore(t)
	if err := s.DetachSubtree(doc.Root); err == nil {
		t.Fatalf("detaching a document root: want error")
	}
	if err := s.DetachSubtree(s.VirtualRoot); err == nil {
		t.Fatalf("detaching the virtual root: want error")
	}
	b := doc.Root.Children[0]
	if err := s.DetachSubtree(b); err != nil {
		t.Fatal(err)
	}
	if err := s.DetachSubtree(b); err == nil {
		t.Fatalf("double detach: want error")
	}
}

func TestAncestors(t *testing.T) {
	s := NewStore()
	doc, err := ParseString(`<a><b><c/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	s.AddDocument(doc)
	c := doc.Root.Children[0].Children[0]
	anc := s.Ancestors(c)
	if len(anc) != 2 || anc[0].Label != "a" || anc[1].Label != "b" {
		t.Fatalf("Ancestors = %v", anc)
	}
	if got := s.Ancestors(doc.Root); len(got) != 0 {
		t.Fatalf("root ancestors = %v", got)
	}
}
