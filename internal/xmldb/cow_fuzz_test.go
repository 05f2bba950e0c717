package xmldb

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// model is a store version as plain id-keyed maps, deep-copied per
// version, so nothing is shared between the versions it describes.
type model struct {
	label  map[int64]string
	parent map[int64]int64
	kids   map[int64][]int64
}

func modelOf(s *Store) *model {
	m := &model{label: map[int64]string{}, parent: map[int64]int64{}, kids: map[int64][]int64{}}
	s.Walk(func(n *Node) bool {
		m.add(n.ID, n.Label, n.ParentID)
		return true
	})
	return m
}

func (m *model) add(id int64, label string, parent int64) {
	m.label[id], m.parent[id] = label, parent
	m.kids[parent] = append(m.kids[parent], id)
}

func (m *model) clone() *model {
	c := &model{label: maps.Clone(m.label), parent: maps.Clone(m.parent), kids: map[int64][]int64{}}
	for id, k := range m.kids {
		c.kids[id] = slices.Clone(k)
	}
	return c
}

func (m *model) remove(id int64) {
	p := m.parent[id]
	m.kids[p] = slices.DeleteFunc(m.kids[p], func(k int64) bool { return k == id })
	var rec func(id int64)
	rec = func(id int64) {
		for _, k := range m.kids[id] {
			rec(k)
		}
		delete(m.label, id)
		delete(m.parent, id)
		delete(m.kids, id)
	}
	rec(id)
}

// dump renders the subtree at id in Dump's format (the fuzzed nodes carry
// no values).
func (m *model) dump(id int64) string {
	var b strings.Builder
	var rec func(id int64, indent int)
	rec = func(id int64, indent int) {
		fmt.Fprintf(&b, "%s%s#%d\n", strings.Repeat("  ", indent), m.label[id], id)
		for _, k := range m.kids[id] {
			rec(k, indent+1)
		}
	}
	rec(id, 0)
	return b.String()
}

// ids returns the model's node ids in ascending order, virtual root first.
func (m *model) ids() []int64 {
	out := []int64{0}
	for id := range m.label {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// checkVersion compares a store version with its model on Dump, NodeByID,
// Parent and NodeCount, over every id ever allocated.
func checkVersion(t *testing.T, tag string, s *Store, m *model, maxID int64) {
	t.Helper()
	if got, want := s.NodeCount(), len(m.label); got != want {
		t.Fatalf("%s: NodeCount = %d, model %d", tag, got, want)
	}
	docs := m.kids[0]
	if len(s.Docs) != len(docs) || len(s.VirtualRoot.Children) != len(docs) {
		t.Fatalf("%s: %d docs, %d virtual-root children, model %d", tag, len(s.Docs), len(s.VirtualRoot.Children), len(docs))
	}
	for i, id := range docs {
		if s.Docs[i].Root != s.VirtualRoot.Children[i] {
			t.Fatalf("%s: Docs[%d] is not the virtual root's child %d", tag, i, i)
		}
		if got, want := Dump(s.Docs[i].Root), m.dump(id); got != want {
			t.Fatalf("%s: document %d:\n%s\nmodel:\n%s", tag, i, got, want)
		}
	}
	for id := int64(0); id <= maxID; id++ {
		n := s.NodeByID(id)
		label, ok := m.label[id]
		switch {
		case id == 0:
			if n != s.VirtualRoot || s.Parent(n) != nil {
				t.Fatalf("%s: NodeByID(0) is not the parentless virtual root", tag)
			}
		case !ok:
			if n != nil {
				t.Fatalf("%s: NodeByID(%d) = %s, model has no such node", tag, id, n.Label)
			}
		case n == nil || n.ID != id || n.Label != label:
			t.Fatalf("%s: NodeByID(%d) = %+v, model %q", tag, id, n, label)
		default:
			if p := s.Parent(n); p == nil || p.ID != m.parent[id] || !slices.Contains(p.Children, n) {
				t.Fatalf("%s: Parent(#%d) = %+v, model #%d", tag, id, p, m.parent[id])
			}
		}
	}
}

// FuzzStoreCOW drives attach, detach and privatize over a chain of
// CloneShallow versions. Every version — the older ones included, which
// must never change once cloned — is checked against its deep-copied model
// after every operation.
func FuzzStoreCOW(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 3, 0, 1, 5, 2, 4, 1, 9, 0, 2, 7, 3, 2})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 2, 0, 2, 2, 0, 3, 3, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		s := NewStore()
		s.AddDocument(&Document{Root: Elem("a", Elem("b"), Elem("c", Elem("d")))})
		s.AddDocument(&Document{Root: Elem("e", Elem("f"))})
		versions, models := []*Store{s}, []*model{modelOf(s)}
		maxID := s.NextID() - 1
		for i := 0; i+1 < len(ops); i += 2 {
			cur, m := versions[len(versions)-1], models[len(models)-1]
			ids := m.ids()
			at := ids[int(ops[i+1])%len(ids)]
			switch ops[i] % 4 {
			case 0: // a new version
				versions = append(versions, cur.CloneShallow())
				models = append(models, m.clone())
			case 1: // attach one or two new nodes under at
				p, err := cur.Privatize(at)
				if err != nil {
					t.Fatal(err)
				}
				sub := &Node{ID: maxID + 1, Label: fmt.Sprintf("n%d", i)}
				if ops[i+1]&1 == 1 {
					sub.AddChild(&Node{ID: maxID + 2, Label: "k"})
				}
				if err := cur.AttachNumberedSubtree(p, sub); err != nil {
					t.Fatal(err)
				}
				m.add(sub.ID, sub.Label, at)
				for _, c := range sub.Children {
					m.add(c.ID, c.Label, sub.ID)
				}
				maxID += int64(1 + len(sub.Children))
			case 2: // detach at, unless it is a root
				if at == 0 || m.parent[at] == 0 {
					continue
				}
				n, err := cur.Privatize(at)
				if err != nil {
					t.Fatal(err)
				}
				if err := cur.DetachSubtree(n); err != nil {
					t.Fatal(err)
				}
				m.remove(at)
			case 3: // privatize only: changes nothing visible
				if _, err := cur.Privatize(at); err != nil {
					t.Fatal(err)
				}
			}
			for v := range versions {
				checkVersion(t, fmt.Sprintf("op %d, version %d", i/2, v), versions[v], models[v], maxID)
			}
		}
	})
}
