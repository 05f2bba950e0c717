// Package xmldb implements the XML data model used throughout the library:
// a forest of rooted, ordered, labeled trees in which non-leaf nodes are
// elements and attributes (labeled by tag or attribute name) and leaf string
// values hang off the node that contains them. Every element and attribute
// node carries a unique numeric identifier assigned in document (pre-order)
// order, exactly as in Figure 1 of the paper; value leaves carry no id.
package xmldb

import (
	"fmt"
	"sort"
	"strings"
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

	Parent   *Node
	Children []*Node
}

// IsAttr reports whether the node is an attribute node.
func (n *Node) IsAttr() bool { return strings.HasPrefix(n.Label, AttrPrefix) }

// AddChild appends c to n's children and sets the parent pointer.
func (n *Node) AddChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Path returns the slash-separated label path from the document root to n,
// e.g. "site/regions/namerica/item". Useful in error messages and tests.
func (n *Node) Path() string {
	var labels []string
	for cur := n; cur != nil && cur.ID != 0; cur = cur.Parent {
		labels = append(labels, cur.Label)
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, "/")
}

// Document is a single XML tree.
type Document struct {
	Root *Node
}

// Store is a forest of documents sharing one id space, rooted at a virtual
// root node with id 0 (the paper's Section 3.3 device that lets DATAPATHS
// answer FreeIndex as a BoundIndex on the virtual root).
type Store struct {
	VirtualRoot *Node
	Docs        []*Document

	nextID int64
	byID   map[int64]*Node

	// privatized and writeSet exist only on handles made by CloneShallow:
	// privatized marks the top-level subtrees this handle has deep-copied
	// (further Privatize calls into them are free), and writeSet records the
	// top-level subtree ids the handle has declared it will mutate — the
	// document-granularity write-set the engine validates transactions with.
	privatized map[int64]bool
	writeSet   map[int64]bool
}

// NewStore returns an empty store whose next node id is 1.
func NewStore() *Store {
	vr := &Node{ID: 0, Label: ""}
	return &Store{
		VirtualRoot: vr,
		nextID:      1,
		byID:        map[int64]*Node{0: vr},
	}
}

// NextID returns the next unassigned node id without consuming it.
func (s *Store) NextID() int64 { return s.nextID }

// AddDocument numbers every node of doc in pre-order, registers the nodes,
// and attaches the document root under the virtual root.
func (s *Store) AddDocument(doc *Document) {
	if doc == nil || doc.Root == nil {
		return
	}
	s.number(doc.Root)
	doc.Root.Parent = s.VirtualRoot
	s.VirtualRoot.Children = append(s.VirtualRoot.Children, doc.Root)
	s.Docs = append(s.Docs, doc)
}

func (s *Store) number(n *Node) {
	n.ID = s.nextID
	s.nextID++
	s.byID[n.ID] = n
	for _, c := range n.Children {
		s.number(c)
	}
}

// NodeByID returns the node with the given id, or nil if unknown.
func (s *Store) NodeByID(id int64) *Node { return s.byID[id] }

// RestoreDocument attaches a document whose nodes already carry their ids
// (the persistence path: the engine catalog deserialises documents with
// the ids they were saved with, so index rows keep pointing at the right
// nodes). Combine with SetNextID to restore the id counter.
func (s *Store) RestoreDocument(doc *Document) {
	if doc == nil || doc.Root == nil {
		return
	}
	var register func(n *Node)
	register = func(n *Node) {
		s.byID[n.ID] = n
		for _, c := range n.Children {
			register(c)
		}
	}
	register(doc.Root)
	doc.Root.Parent = s.VirtualRoot
	s.VirtualRoot.Children = append(s.VirtualRoot.Children, doc.Root)
	s.Docs = append(s.Docs, doc)
}

// SetNextID restores the id counter; ids at or above next must be unused.
func (s *Store) SetNextID(next int64) { s.nextID = next }

// AttachNumberedSubtree attaches a subtree whose nodes already carry ids —
// assigned by the engine's global id allocator, so concurrent transaction
// writers never collide — as the last child of parent. The subtree's ids
// must be unused in this store; the id counter is raised past them so a
// later SetNextID-free numbering cannot reuse them.
func (s *Store) AttachNumberedSubtree(parent *Node, sub *Node) error {
	if parent == nil {
		return fmt.Errorf("xmldb: attach to nil parent")
	}
	if s.byID[parent.ID] != parent {
		return fmt.Errorf("xmldb: parent #%d is not part of this store", parent.ID)
	}
	if sub.Parent != nil {
		return fmt.Errorf("xmldb: subtree already attached")
	}
	if sub.ID == 0 {
		return fmt.Errorf("xmldb: subtree is not numbered")
	}
	var register func(n *Node) error
	register = func(n *Node) error {
		if _, dup := s.byID[n.ID]; dup {
			return fmt.Errorf("xmldb: node id %d already present in store", n.ID)
		}
		s.byID[n.ID] = n
		if n.ID >= s.nextID {
			s.nextID = n.ID + 1
		}
		for _, c := range n.Children {
			if err := register(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := register(sub); err != nil {
		return err
	}
	sub.Parent = parent
	parent.Children = append(parent.Children, sub)
	if parent.ID == 0 && s.writeSet != nil {
		// A new top-level subtree is its own "document" for conflict
		// purposes; record it so the write-set is complete.
		s.writeSet[sub.ID] = true
	}
	return nil
}

// AttachSubtree numbers the nodes of sub (which must not yet have ids) and
// attaches it as the last child of parent. Pre-order id assignment
// continues from the store's id counter, so new ids are larger than all
// existing ones; document order among ids is preserved only per subtree,
// which is all the indices require (ids are opaque join keys).
func (s *Store) AttachSubtree(parent *Node, sub *Node) error {
	if parent == nil {
		return fmt.Errorf("xmldb: attach to nil parent")
	}
	if s.byID[parent.ID] != parent {
		return fmt.Errorf("xmldb: parent #%d is not part of this store", parent.ID)
	}
	if sub.ID != 0 || sub.Parent != nil {
		return fmt.Errorf("xmldb: subtree already attached")
	}
	s.number(sub)
	sub.Parent = parent
	parent.Children = append(parent.Children, sub)
	return nil
}

// DetachSubtree removes n (and its subtree) from the store and from its
// parent's child list. The virtual root and document roots cannot be
// detached.
func (s *Store) DetachSubtree(n *Node) error {
	if n == nil || n.ID == 0 {
		return fmt.Errorf("xmldb: cannot detach the virtual root")
	}
	if s.byID[n.ID] != n {
		return fmt.Errorf("xmldb: node #%d is not part of this store", n.ID)
	}
	p := n.Parent
	if p == nil || p.ID == 0 {
		return fmt.Errorf("xmldb: cannot detach a document root")
	}
	idx := -1
	for i, c := range p.Children {
		if c == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("xmldb: node #%d missing from its parent's children", n.ID)
	}
	p.Children = append(p.Children[:idx], p.Children[idx+1:]...)
	var unregister func(n *Node)
	unregister = func(n *Node) {
		delete(s.byID, n.ID)
		for _, c := range n.Children {
			unregister(c)
		}
	}
	unregister(n)
	n.Parent = nil
	return nil
}

// CloneForWrite returns a copy of the store prepared for mutating the
// subtree location identified by targetID, plus target's node in the copy.
// The document containing the target is deep-copied (every node fresh, so
// parent/child pointers inside it are internally consistent); all other
// documents are shared by pointer with the original, which must from now on
// be treated as immutable — this is the store half of the engine's
// copy-on-write snapshots, at document granularity. A targetID of 0 (the
// virtual root) copies only the root itself and shares every document.
//
// Shared documents keep their original root nodes, whose Parent still
// points at the original store's virtual root; that pointer is only ever
// used for its ID (the `ID == 0` root checks), never traversed for
// children, so the aliasing is harmless.
func (s *Store) CloneForWrite(targetID int64) (*Store, *Node, error) {
	clone := s.CloneShallow()
	n, err := clone.Privatize(targetID)
	if err != nil {
		return nil, nil, err
	}
	return clone, n, nil
}

// CloneShallow returns a copy of the store that shares every document tree
// with the original by pointer: only the virtual root, the byID map, and
// the Docs slice are copied. The original must from now on be treated as
// immutable. Individual documents are deep-copied on demand by Privatize —
// together they are the document-granularity copy-on-write substrate of
// the engine's transactions, which also read the accumulated write-set off
// the clone (see WriteSet).
//
// Shared documents keep their original root nodes, whose Parent still
// points at the original store's virtual root; that pointer is only ever
// used for its ID (the `ID == 0` root checks), never traversed for
// children, so the aliasing is harmless.
func (s *Store) CloneShallow() *Store {
	vr := &Node{ID: 0, Label: ""}
	clone := &Store{
		VirtualRoot: vr,
		Docs:        append([]*Document(nil), s.Docs...),
		nextID:      s.nextID,
		byID:        make(map[int64]*Node, len(s.byID)+8),
		privatized:  make(map[int64]bool),
		writeSet:    make(map[int64]bool),
	}
	for id, n := range s.byID {
		clone.byID[id] = n
	}
	clone.byID[0] = vr
	vr.Children = append([]*Node(nil), s.VirtualRoot.Children...)
	return clone
}

// Privatize prepares the store for mutating the location identified by
// targetID: the top-level subtree (document) containing the target is
// deep-copied — unless this handle already privatized it — swapped into
// Docs and the virtual root's child list, and recorded in the write-set.
// It returns the target's node in the private copy. Only meaningful on
// handles made by CloneShallow; on other stores every document is already
// private and the call just resolves the node.
func (s *Store) Privatize(targetID int64) (*Node, error) {
	target := s.byID[targetID]
	if target == nil {
		return nil, fmt.Errorf("xmldb: no node with id %d", targetID)
	}
	if targetID == 0 {
		return s.VirtualRoot, nil
	}
	top := target
	for top.Parent != nil && top.Parent.ID != 0 {
		top = top.Parent
	}
	if s.writeSet != nil {
		s.writeSet[top.ID] = true
	}
	if s.privatized == nil || s.privatized[top.ID] {
		// Not a shallow clone (every document private already), or this
		// document was privatized earlier: byID resolves into the copy.
		return target, nil
	}
	var newTarget *Node
	var copyTree func(n *Node, parent *Node) *Node
	copyTree = func(n *Node, parent *Node) *Node {
		c := &Node{ID: n.ID, Label: n.Label, Value: n.Value, HasValue: n.HasValue, Parent: parent}
		if len(n.Children) > 0 {
			c.Children = make([]*Node, len(n.Children))
			for j, ch := range n.Children {
				c.Children[j] = copyTree(ch, c)
			}
		}
		s.byID[c.ID] = c
		if n == target {
			newTarget = c
		}
		return c
	}
	newTop := copyTree(top, s.VirtualRoot)
	for i, d := range s.Docs {
		if d.Root == top {
			s.Docs[i] = &Document{Root: newTop}
			break
		}
	}
	for i, c := range s.VirtualRoot.Children {
		if c == top {
			s.VirtualRoot.Children[i] = newTop
			break
		}
	}
	s.privatized[top.ID] = true
	return newTarget, nil
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ancestors returns the nodes from the document root down to n's parent
// (excluding the virtual root and n itself).
func (s *Store) Ancestors(n *Node) []*Node {
	var up []*Node
	for cur := n.Parent; cur != nil && cur.ID != 0; cur = cur.Parent {
		up = append(up, cur)
	}
	for i, j := 0, len(up)-1; i < j; i, j = i+1, j-1 {
		up[i], up[j] = up[j], up[i]
	}
	return up
}

// NodeCount returns the number of element/attribute nodes in the store
// (excluding the virtual root).
func (s *Store) NodeCount() int { return len(s.byID) - 1 }

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
