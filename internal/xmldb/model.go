// Package xmldb implements the XML data model used throughout the library:
// a forest of rooted, ordered, labeled trees in which non-leaf nodes are
// elements and attributes (labeled by tag or attribute name) and leaf string
// values hang off the node that contains them. Every element and attribute
// node carries a unique numeric identifier assigned in document (pre-order)
// order, exactly as in Figure 1 of the paper; value leaves carry no id.
package xmldb

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cowmap"
)

// AttrPrefix distinguishes attribute labels from element tags in schema
// paths. An attribute named "income" is labeled "@income".
const AttrPrefix = "@"

// Node is a single element or attribute node in an XML tree.
//
// Leaf string values are not separate nodes: a node that directly contains
// character data (or an attribute's value) records it in Value with HasValue
// set. This mirrors the paper's 4-ary relation, where IdList contains only
// element/attribute ids and the leaf value is a separate column.
//
// A node reaches its parent by id, through the Store version it is read
// from (Store.Parent): versions share every node they did not change, so a
// parent pointer would lead a reader of one version into another's child
// lists.
type Node struct {
	// ID is the unique document-order identifier. The virtual root that
	// parents all documents has ID 0; real nodes start at 1.
	ID int64

	// Label is the element tag, or AttrPrefix + name for attributes.
	Label string

	// Value is the leaf string value directly contained by this node.
	Value string

	// HasValue reports whether Value is meaningful (distinguishes an
	// empty string value from no value at all).
	HasValue bool

	// ParentID is the id of the parent node, set when the node is
	// registered in a store (0 for document roots, whose parent is the
	// virtual root, and for nodes not yet in any store).
	ParentID int64

	Children []*Node
}

// IsAttr reports whether the node is an attribute node.
func (n *Node) IsAttr() bool { return strings.HasPrefix(n.Label, AttrPrefix) }

// AddChild appends c to n's children (a builder for unattached trees; a
// store sets parent ids when the tree is registered).
func (n *Node) AddChild(c *Node) {
	n.Children = append(n.Children, c)
}

// Document is a single XML tree.
type Document struct {
	Root *Node
}

// Store is a forest of documents sharing one id space, rooted at a virtual
// root node with id 0 (the paper's Section 3.3 device that lets DATAPATHS
// answer FreeIndex as a BoundIndex on the virtual root). Docs[i].Root is
// VirtualRoot.Children[i].
//
// Versions of a store made by CloneShallow share every node they have not
// changed. A writer copies only the spine from the virtual root down to
// the node it changes (Privatize); the id index is a frozen base map
// shared by pointer plus a small per-version delta (cowmap.Map).
type Store struct {
	VirtualRoot *Node
	Docs        []*Document

	nextID int64
	byID   cowmap.Map[int64, *Node]

	// owned and writeSet exist only on handles made by CloneShallow. owned
	// holds the ids of the nodes this handle copied and of the roots of the
	// subtrees it attached: those it may mutate in place, and Privatize
	// through them copies nothing. A nil owned set means every node is
	// private to this store. writeSet records the top-level subtree ids the
	// handle has declared it will mutate — the document-granularity
	// write-set the engine validates transactions with.
	owned    map[int64]bool
	writeSet map[int64]bool
}

// NewStore returns an empty store whose next node id is 1.
func NewStore() *Store {
	vr := &Node{ID: 0, Label: ""}
	s := &Store{VirtualRoot: vr, nextID: 1}
	s.byID.Set(0, vr)
	return s
}

// NextID returns the next unassigned node id without consuming it.
func (s *Store) NextID() int64 { return s.nextID }

// AddDocument numbers every node of doc in pre-order from the store's id
// counter, registers the nodes, and attaches the document root under the
// virtual root.
func (s *Store) AddDocument(doc *Document) {
	if doc == nil || doc.Root == nil {
		return
	}
	s.number(doc.Root)
	_ = s.RestoreDocument(doc) // fresh ids cannot collide
}

// number assigns pre-order ids to the subtree at n from the id counter.
func (s *Store) number(n *Node) {
	n.ID = s.nextID
	s.nextID++
	for _, c := range n.Children {
		s.number(c)
	}
}

// NodeByID returns the node with the given id, or nil if unknown.
func (s *Store) NodeByID(id int64) *Node { return s.byID.Get(id) }

// Parent returns n's parent in this store: the virtual root for a document
// root, nil for the virtual root and for nodes not in this store.
func (s *Store) Parent(n *Node) *Node {
	if n.ID == 0 || s.byID.Get(n.ID) != n {
		return nil
	}
	return s.byID.Get(n.ParentID)
}

// RestoreDocument attaches a document whose nodes already carry their ids
// (the persistence path: the engine catalog deserialises documents with
// the ids they were saved with, so index rows keep pointing at the right
// nodes). Combine with SetNextID to restore the id counter.
func (s *Store) RestoreDocument(doc *Document) error {
	if doc == nil || doc.Root == nil {
		return nil
	}
	vr, _ := s.Privatize(0) // the virtual root always exists
	return s.AttachNumberedSubtree(vr, doc.Root)
}

// SetNextID restores the id counter; ids at or above next must be unused.
func (s *Store) SetNextID(next int64) { s.nextID = next }

// AttachNumberedSubtree attaches a subtree whose nodes already carry ids —
// assigned by the engine's global id allocator, so concurrent transaction
// writers never collide — as the last child of parent. The subtree's ids
// must be unused in this store; the id counter is raised past them so a
// later SetNextID-free numbering cannot reuse them. A subtree attached
// under the virtual root becomes a document of its own.
func (s *Store) AttachNumberedSubtree(parent *Node, sub *Node) error {
	if err := s.checkParent(parent); err != nil {
		return err
	}
	if sub.ID == 0 {
		return fmt.Errorf("xmldb: subtree is not numbered")
	}
	if s.byID.Get(sub.ID) != nil {
		return fmt.Errorf("xmldb: subtree already attached")
	}
	// A duplicate id deeper down fails the attach half-done: the version is
	// broken, and its writer discards it.
	var register func(n *Node, parentID int64) error
	register = func(n *Node, parentID int64) error {
		n.ParentID = parentID
		if !s.byID.Add(n.ID, n) {
			return fmt.Errorf("xmldb: node id %d already present in store", n.ID)
		}
		if n.ID >= s.nextID {
			s.nextID = n.ID + 1
		}
		for _, c := range n.Children {
			if err := register(c, n.ID); err != nil {
				return err
			}
		}
		return nil
	}
	if err := register(sub, parent.ID); err != nil {
		return err
	}
	if s.owned != nil {
		// Inserting under the new root needs no copy; deeper nodes are
		// spine-copied like any other should a later write reach them.
		s.owned[sub.ID] = true
	}
	parent.Children = append(parent.Children, sub)
	if parent.ID == 0 {
		s.Docs = append(s.Docs, &Document{Root: sub})
		if s.writeSet != nil {
			// A new top-level subtree is its own "document" for conflict
			// purposes; record it so the write-set is complete.
			s.writeSet[sub.ID] = true
		}
	}
	return nil
}

// checkParent verifies parent is a node of this store the caller may
// mutate: on a CloneShallow handle, one Privatize returned.
func (s *Store) checkParent(parent *Node) error {
	if parent == nil {
		return fmt.Errorf("xmldb: attach to nil parent")
	}
	if s.byID.Get(parent.ID) != parent {
		return fmt.Errorf("xmldb: parent #%d is not part of this store", parent.ID)
	}
	if s.owned != nil && !s.owned[parent.ID] {
		return fmt.Errorf("xmldb: parent #%d is shared with other versions (Privatize it first)", parent.ID)
	}
	return nil
}

// AttachSubtree numbers the nodes of sub (which must not yet have ids) and
// attaches it as the last child of parent. Pre-order id assignment
// continues from the store's id counter, so new ids are larger than all
// existing ones; document order among ids is preserved only per subtree,
// which is all the indices require (ids are opaque join keys).
func (s *Store) AttachSubtree(parent *Node, sub *Node) error {
	if err := s.checkParent(parent); err != nil {
		return err
	}
	if sub.ID != 0 {
		return fmt.Errorf("xmldb: subtree already attached")
	}
	s.number(sub)
	return s.AttachNumberedSubtree(parent, sub)
}

// DetachSubtree removes n (and its subtree) from the store and from its
// parent's child list. The virtual root and document roots cannot be
// detached. On a CloneShallow handle, n must come from Privatize.
func (s *Store) DetachSubtree(n *Node) error {
	if n == nil || n.ID == 0 {
		return fmt.Errorf("xmldb: cannot detach the virtual root")
	}
	if s.byID.Get(n.ID) != n {
		return fmt.Errorf("xmldb: node #%d is not part of this store", n.ID)
	}
	if n.ParentID == 0 {
		return fmt.Errorf("xmldb: cannot detach a document root")
	}
	p := s.byID.Get(n.ParentID)
	if err := s.checkParent(p); err != nil {
		return err
	}
	idx := slices.Index(p.Children, n)
	if idx < 0 {
		return fmt.Errorf("xmldb: node #%d missing from its parent's children", n.ID)
	}
	p.Children = slices.Delete(p.Children, idx, idx+1)
	var unregister func(n *Node)
	unregister = func(n *Node) {
		s.byID.Set(n.ID, nil)
		for _, c := range n.Children {
			unregister(c)
		}
	}
	unregister(n)
	return nil
}

// CloneForWrite returns a copy of the store prepared for mutating the
// subtree location identified by targetID, plus target's node in the copy:
// CloneShallow followed by Privatize(targetID). The original must from now
// on be treated as immutable — this is the store half of the engine's
// copy-on-write snapshots.
func (s *Store) CloneForWrite(targetID int64) (*Store, *Node, error) {
	clone := s.CloneShallow()
	n, err := clone.Privatize(targetID)
	if err != nil {
		return nil, nil, err
	}
	return clone, n, nil
}

// CloneShallow returns a new version of the store that shares every node
// with the original, in O(changes the original's id index has not yet
// folded): no node and no child list is copied until Privatize. The
// original must from now on be treated as immutable. Together with
// Privatize this is the copy-on-write substrate of the engine's
// transactions, which also read the accumulated write-set off the clone
// (see WriteSet).
func (s *Store) CloneShallow() *Store {
	return &Store{
		VirtualRoot: s.VirtualRoot,
		Docs:        s.Docs,
		nextID:      s.nextID,
		byID:        s.byID.Clone(),
		owned:       make(map[int64]bool),
		writeSet:    make(map[int64]bool),
	}
}

// Privatize prepares the store for mutating the node identified by
// targetID: every node on the path from the virtual root down to the
// target that this handle does not already own is copied —
// the copy gets a fresh Children slice, everything off the path stays
// shared — and re-linked into its (private) parent, Docs included. The
// target's document is recorded in the write-set. It returns the target's
// private node, whose Children slice may be changed in place. On stores
// not made by CloneShallow every node is private and the call just
// resolves the node.
func (s *Store) Privatize(targetID int64) (*Node, error) {
	target := s.byID.Get(targetID)
	if target == nil {
		return nil, fmt.Errorf("xmldb: no node with id %d", targetID)
	}
	spine := []*Node{target} // target first, virtual root last
	for n := target; n.ID != 0; {
		n = s.byID.Get(n.ParentID)
		spine = append(spine, n)
	}
	if s.writeSet != nil && targetID != 0 {
		s.writeSet[spine[len(spine)-2].ID] = true
	}
	if s.owned == nil {
		return target, nil
	}
	var parent *Node
	for i := len(spine) - 1; i >= 0; i-- {
		n := spine[i]
		if s.owned[n.ID] {
			parent = n
			continue
		}
		c := &Node{ID: n.ID, Label: n.Label, Value: n.Value, HasValue: n.HasValue,
			ParentID: n.ParentID, Children: slices.Clone(n.Children)}
		s.owned[c.ID] = true
		s.byID.Set(c.ID, c)
		if parent == nil {
			s.VirtualRoot = c
			s.Docs = slices.Clone(s.Docs)
		} else {
			j := slices.Index(parent.Children, n)
			parent.Children[j] = c
			if parent.ID == 0 {
				s.Docs[j] = &Document{Root: c}
			}
		}
		parent = c
	}
	return parent, nil
}

// WriteSet returns the ids of the top-level subtrees (documents) this
// handle has privatized or attached since CloneShallow — the
// document-granularity write-set the engine's optimistic transactions
// validate at commit. Sorted for deterministic conflict reporting; nil for
// stores that were not made by CloneShallow.
func (s *Store) WriteSet() []int64 {
	if len(s.writeSet) == 0 {
		return nil
	}
	out := make([]int64, 0, len(s.writeSet))
	for id := range s.writeSet {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Ancestors returns the nodes from the document root down to n's parent
// (excluding the virtual root and n itself).
func (s *Store) Ancestors(n *Node) []*Node {
	var up []*Node
	for cur := s.Parent(n); cur != nil && cur.ID != 0; cur = s.Parent(cur) {
		up = append(up, cur)
	}
	slices.Reverse(up)
	return up
}

// Path returns the slash-separated label path from the document root to n,
// e.g. "site/regions/namerica/item". Useful in error messages and tests.
func (s *Store) Path(n *Node) string {
	var labels []string
	for _, a := range s.Ancestors(n) {
		labels = append(labels, a.Label)
	}
	return strings.Join(append(labels, n.Label), "/")
}

// NodeCount returns the number of element/attribute nodes in the store
// (excluding the virtual root).
func (s *Store) NodeCount() int { return s.byID.Len() - 1 }

// Walk calls fn for every node of every document in pre-order. Returning
// false from fn skips the node's subtree.
func (s *Store) Walk(fn func(*Node) bool) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, d := range s.Docs {
		rec(d.Root)
	}
}

// Stats summarises structural properties of the store.
type Stats struct {
	Nodes           int
	MaxDepth        int
	DistinctLabels  int
	DistinctRootSPs int // distinct root-originating schema paths
}

// CollectStats walks the store once and computes Stats.
func (s *Store) CollectStats() Stats {
	st := Stats{Nodes: s.NodeCount()}
	labels := map[string]struct{}{}
	paths := map[string]struct{}{}
	var rec func(n *Node, depth int, path string)
	rec = func(n *Node, depth int, path string) {
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		labels[n.Label] = struct{}{}
		p := path + "/" + n.Label
		paths[p] = struct{}{}
		for _, c := range n.Children {
			rec(c, depth+1, p)
		}
	}
	for _, d := range s.Docs {
		rec(d.Root, 1, "")
	}
	st.DistinctLabels = len(labels)
	st.DistinctRootSPs = len(paths)
	return st
}

// Elem constructs an element node with the given children; a convenience
// builder used by tests and the data generators.
func Elem(label string, children ...*Node) *Node {
	n := &Node{Label: label}
	for _, c := range children {
		n.AddChild(c)
	}
	return n
}

// Text constructs an element node holding a leaf string value.
func Text(label, value string) *Node {
	return &Node{Label: label, Value: value, HasValue: true}
}

// Attr constructs an attribute node holding a leaf string value.
func Attr(name, value string) *Node {
	return &Node{Label: AttrPrefix + name, Value: value, HasValue: true}
}

// Dump renders the subtree rooted at n as an indented one-line-per-node
// string; intended for debugging and test failure messages.
func Dump(n *Node) string {
	var b strings.Builder
	var rec func(n *Node, indent int)
	rec = func(n *Node, indent int) {
		fmt.Fprintf(&b, "%s%s#%d", strings.Repeat("  ", indent), n.Label, n.ID)
		if n.HasValue {
			fmt.Fprintf(&b, "=%q", n.Value)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, indent+1)
		}
	}
	rec(n, 0)
	return b.String()
}
