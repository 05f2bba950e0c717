package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// Edge is the Edge-table baseline [Florescu/Kossman] with the three Lore
// indices the paper reports as most useful: the value index (tag + value ->
// node id), the forward link index (parent id + tag -> child id) and the
// backward link index (child id -> parent), which is the Edge table itself:
// the node table below. Path steps are evaluated by joining through these
// indices one step at a time — the per-step-join cost the paper's Figure
// 11 exposes.
type Edge struct {
	value   *btree.Tree // [tag][valuefield][nodeID] -> nil
	forward *btree.Tree // [parentID][tag][childID] -> nil
	dict    *pathdict.Dict
}

// prepareEdge emits and sorts the rows of the value and forward link
// indices. Document roots are recorded as children of the virtual root
// (parent id 0).
func prepareEdge(s Site) (load, error) {
	var valEntries []btree.Entry
	fwdEntries := make([]btree.Entry, 0, s.Store.NodeCount())
	var ar arena
	var key []byte
	var walk func(n *xmldb.Node, parentID int64)
	walk = func(n *xmldb.Node, parentID int64) {
		sym := s.Dict.Intern(n.Label)
		if n.HasValue {
			key = appendSym(key[:0], sym)
			key = pathdict.AppendValueField(key, true, n.Value)
			key = pathdict.AppendID(key, n.ID)
			valEntries = append(valEntries, btree.Entry{Key: ar.copy(key)})
		}
		key = pathdict.AppendID(key[:0], parentID)
		key = appendSym(key, sym)
		key = pathdict.AppendID(key, n.ID)
		fwdEntries = append(fwdEntries, btree.Entry{Key: ar.copy(key)})
		for _, c := range n.Children {
			walk(c, n.ID)
		}
	}
	for _, d := range s.Store.Docs {
		walk(d.Root, 0)
	}
	sortByKey(valEntries)
	sortByKey(fwdEntries)
	return func(ld *loader) (any, error) {
		value, err := ld.bulk("Edge/value", valEntries)
		if err != nil {
			return nil, err
		}
		forward, err := ld.bulk("Edge/forward", fwdEntries)
		if err != nil {
			return nil, err
		}
		return &Edge{value: value, forward: forward, dict: s.Dict}, nil
	}, nil
}

// ValueProbe returns the ids of nodes labeled label that carry the given
// leaf value (the Lore value index).
func (e *Edge) ValueProbe(sc *Scratch, label, value string, fn func(id int64) error) (int, error) {
	sym, ok := e.dict.Sym(label)
	if !ok {
		return 0, nil
	}
	sc.Prefix = pathdict.AppendValueField(appendSym(sc.Prefix[:0], sym), true, value)
	return sc.scanTrailingIDs(e.value, fn)
}

// Children returns the child ids of parentID, optionally restricted to one
// tag (the Lore forward link index). label == "" iterates all children.
func (e *Edge) Children(sc *Scratch, parentID int64, label string, fn func(id int64) error) (int, error) {
	sc.Prefix = pathdict.AppendID(sc.Prefix[:0], parentID)
	if label != "" {
		sym, ok := e.dict.Sym(label)
		if !ok {
			return 0, nil
		}
		sc.Prefix = appendSym(sc.Prefix, sym)
	}
	return sc.scanTrailingIDs(e.forward, fn)
}

func (e *Edge) Kind() Kind { return KindEdge }

// Space reports the combined footprint of the two edge indices.
func (e *Edge) Space() Space { return treeSpace(KindEdge, e.value, e.forward) }

func (e *Edge) WalkPages(fn func(storage.PageID) error) error {
	return walkTrees(fn, e.value, e.forward)
}

// AppendRecord writes the Edge record: value tree, forward tree.
func (e *Edge) AppendRecord(w *CatWriter) {
	w.Tree(e.value)
	w.Tree(e.forward)
}

func openEdge(r *CatReader, s Site) Structure {
	return &Edge{value: r.tree(s.Pool), forward: r.tree(s.Pool), dict: s.Dict}
}

func appendSym(dst []byte, s pathdict.Sym) []byte {
	return binary.BigEndian.AppendUint16(dst, uint16(s))
}

// The node table is the durable form of the XML store: the paper's Edge
// relation kept as one B+-tree, one entry per element or attribute node
// keyed by its id. A database's first commit bulk-loads it from
// the store; every later commit changes only the entries of the nodes its
// write-set inserted or deleted, copy-on-write like ROOTPATHS and DATAPATHS,
// so what a commit writes follows the change and not the database. The
// catalog keeps only the tree's Meta.
//
// Entry layout (integers uvarint):
//
//	key:   the node id, 8 bytes big-endian
//	value: id − parentID, sym<<1 | hasValue, then the value bytes
//
// sym is the label's symbol in the shared, persisted dictionary. Reading
// the table in key order and appending each node to its parent rebuilds
// every child list in id order, which is document order for everything
// Load numbers and for every subtree an insert appends with fresh ids. A
// node appended after a sibling with a larger id — an insert retried with
// the ids its template was numbered with, or a top-level document from a
// transaction that committed after a later-numbered one — is marked by a
// leading 0 (no node is its own parent) and carries its explicit sibling
// order: 0, id − parentID, order, sym<<1 | hasValue, value bytes. A node's
// order is its id unless marked; a marked node's is one more than its
// previous sibling's. Only marked nodes pay for it.
//
// A value longer than NodeChunk bytes continues in entries keyed by the id
// plus a 2-byte big-endian chunk number from 1, each holding the next
// NodeChunk bytes; they sort between the node and the next id.
const (
	nodeTableName = "NODES"
	nodeKeyLen    = 8
	chunkKeyLen   = nodeKeyLen + 2
	// NodeChunk leaves room in btree.MaxEntrySize for a key and the three
	// uvarints of a marked node's header.
	NodeChunk = btree.MaxEntrySize - 64
)

// NodeTable is one version of the node table. A writer mutates only a
// CloneCOW of the published handle (see btree.Tree).
type NodeTable struct {
	tree *btree.Tree
	dict *pathdict.Dict

	kbuf, vbuf []byte // entry scratch of the writer that owns the handle
}

var _ Lifecycle = (*NodeTable)(nil)

// OpenNodeTable reconstitutes the table whose Meta the catalog kept.
func OpenNodeTable(pool *storage.Pool, m btree.Meta, dict *pathdict.Dict) *NodeTable {
	return &NodeTable{tree: btree.Open(pool, m), dict: dict}
}

// Tree returns the table's B+-tree.
func (nt *NodeTable) Tree() *btree.Tree { return nt.tree }

// NodeKey appends the key of node id's entry to dst.
func NodeKey(dst []byte, id int64) []byte { return binary.BigEndian.AppendUint64(dst, uint64(id)) }

// ChunkKey appends the key of continuation chunk of node id's value to dst.
func ChunkKey(dst []byte, id int64, chunk int) []byte {
	return binary.BigEndian.AppendUint16(NodeKey(dst, id), uint16(chunk))
}

// DecodeNodeKey splits an entry key into its node id and chunk number (0
// for the node's own entry); ok is false for any other key or chunk 0.
func DecodeNodeKey(key []byte) (id int64, chunk int, ok bool) {
	switch len(key) {
	case nodeKeyLen:
		return int64(binary.BigEndian.Uint64(key)), 0, true
	case chunkKeyLen:
		chunk = int(binary.BigEndian.Uint16(key[nodeKeyLen:]))
		return int64(binary.BigEndian.Uint64(key)), chunk, chunk > 0
	}
	return 0, 0, false
}

// chunks returns the number of continuation entries n's value needs.
func chunks(n *xmldb.Node) int { return max(0, (len(n.Value)-1)/NodeChunk) }

// appendNode hands n's entries — the node, then its value's continuations
// — to add, whose key and val alias the table's scratch buffers and are
// valid only during the call. order is n's sibling order, explicit when it
// is not n's id.
func (nt *NodeTable) appendNode(n *xmldb.Node, parentID int64, order uint64, add func(key, val []byte) error) error {
	if n.ID <= parentID {
		return fmt.Errorf("index: node table: node %d does not follow its parent %d", n.ID, parentID)
	}
	if c := chunks(n); c > 0xFFFF {
		return fmt.Errorf("index: node table: value of node %d is %d bytes, more than %d", n.ID, len(n.Value), 0xFFFF*NodeChunk)
	}
	val := nt.vbuf[:0]
	if order != uint64(n.ID) {
		val = append(val, 0)
		val = binary.AppendUvarint(val, uint64(n.ID-parentID))
		val = binary.AppendUvarint(val, order)
	} else {
		val = binary.AppendUvarint(val, uint64(n.ID-parentID))
	}
	flags := uint64(nt.dict.Intern(n.Label)) << 1
	if n.HasValue {
		flags |= 1
	}
	val = binary.AppendUvarint(val, flags)
	val = append(val, n.Value[:min(len(n.Value), NodeChunk)]...)
	nt.vbuf = val
	nt.kbuf = NodeKey(nt.kbuf[:0], n.ID)
	if err := add(nt.kbuf, val); err != nil {
		return err
	}
	for c := 1; c <= chunks(n); c++ {
		nt.vbuf = append(nt.vbuf[:0], n.Value[c*NodeChunk:min(len(n.Value), (c+1)*NodeChunk)]...)
		nt.kbuf = ChunkKey(nt.kbuf[:0], n.ID, c)
		if err := add(nt.kbuf, nt.vbuf); err != nil {
			return err
		}
	}
	return nil
}

// nextOrder is the order of a node appended after a sibling of order prev:
// its id when that keeps the siblings ascending, prev+1 otherwise.
func nextOrder(id int64, prev uint64) uint64 {
	if uint64(id) > prev {
		return uint64(id)
	}
	return prev + 1
}

// appendSubtree appends the entries of the subtree at n, whose order is
// given; n's descendants follow their parents in list order.
func (nt *NodeTable) appendSubtree(n *xmldb.Node, parentID int64, order uint64, add func(key, val []byte) error) error {
	if err := nt.appendNode(n, parentID, order, add); err != nil {
		return err
	}
	prev := uint64(0)
	for _, c := range n.Children {
		prev = nextOrder(c.ID, prev)
		if err := nt.appendSubtree(c, n.ID, prev, add); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoadNodeTable builds the node table of store in one bulk load. The
// store is walked in document order, which is id order unless inserts
// attached subtrees out of it; only then are the entries sorted.
func BulkLoadNodeTable(pool *storage.Pool, dict *pathdict.Dict, store *xmldb.Store) (*NodeTable, error) {
	nt := &NodeTable{dict: dict}
	entries := make([]btree.Entry, 0, store.NodeCount())
	sorted := true
	var arena []byte // entries are carved out of shared blocks, not one allocation each
	add := func(key, val []byte) error {
		if k := len(entries); k > 0 && sorted && bytes.Compare(entries[k-1].Key, key) > 0 {
			sorted = false
		}
		if need := len(key) + len(val); cap(arena)-len(arena) < need {
			arena = make([]byte, 0, max(64<<10, need))
		}
		lo := len(arena)
		arena = append(append(arena, key...), val...)
		entries = append(entries, btree.Entry{Key: arena[lo : lo+len(key) : lo+len(key)], Val: arena[lo+len(key):]})
		return nil
	}
	prev := uint64(0)
	for _, d := range store.Docs {
		prev = nextOrder(d.Root.ID, prev)
		if err := nt.appendSubtree(d.Root, 0, prev, add); err != nil {
			return nil, err
		}
	}
	if !sorted {
		slices.SortFunc(entries, func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) })
	}
	tree, err := btree.BulkLoad(pool, nodeTableName, entries)
	if err != nil {
		return nil, err
	}
	nt.tree = tree
	return nt, nil
}

// header reads node id's own entry through sc (h.Rest is not valid after
// it returns); ok is false when the table has none. An entry that does not
// decode (see DecodeNodeHeader) matches ErrCorruptEntry and ErrCorruptCatalog.
func (nt *NodeTable) header(sc *Scratch, id int64) (h NodeHeader, ok bool, err error) {
	sc.Prefix = NodeKey(sc.Prefix[:0], id)
	_, err = nt.tree.ScanPrefix(&sc.PrefixScan, func(key, val []byte) error {
		if len(key) != nodeKeyLen {
			return nil // a continuation of the value
		}
		if h, ok = DecodeNodeHeader(id, val), true; h.Err != nil {
			return fmt.Errorf("%w: %w: node table entry %d: %v", ErrCorruptEntry, ErrCorruptCatalog, id, h.Err)
		}
		return nil
	})
	return h, ok && err == nil, err
}

// Parent reads node id's entry: the id of its parent (0 for a document
// root) and its own label's symbol — one point lookup, the backward link
// of the Edge relation. ok is false when the table has no entry for id.
func (nt *NodeTable) Parent(sc *Scratch, id int64) (parentID int64, sym pathdict.Sym, ok bool, err error) {
	h, ok, err := nt.header(sc, id)
	if !ok {
		return 0, 0, false, err
	}
	return id - int64(h.Delta), h.Sym, true, nil
}

// CloneCOW returns a writable copy-on-write version of the table (see
// btree.Tree.CloneCOW).
func (nt *NodeTable) CloneCOW(frontier storage.PageID) *NodeTable {
	return &NodeTable{tree: nt.tree.CloneCOW(frontier), dict: nt.dict}
}

// InsertSubtree adds the entries of sub, just attached in store as the last
// child of its parent.
func (nt *NodeTable) InsertSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	parent := store.Parent(sub)
	if parent == nil || len(parent.Children) == 0 || parent.Children[len(parent.Children)-1] != sub {
		return fmt.Errorf("index: node table: node %d is not its parent's last child", sub.ID)
	}
	prev := uint64(0)
	if k := len(parent.Children); k > 1 {
		var err error
		if prev, err = nt.order(parent.Children[k-2].ID); err != nil {
			return err
		}
	}
	return nt.appendSubtree(sub, parent.ID, nextOrder(sub.ID, prev), nt.tree.Insert)
}

// order returns the sibling order stored for node id.
func (nt *NodeTable) order(id int64) (uint64, error) {
	h, ok, err := nt.header(new(Scratch), id)
	if !ok {
		return uint64(id), err
	}
	return h.Order, nil
}

// DeleteSubtree removes the entries of the subtree at sub.
func (nt *NodeTable) DeleteSubtree(_ *xmldb.Store, sub *xmldb.Node) error {
	key := NodeKey(nil, sub.ID)
	val, ok, err := nt.tree.Get(key)
	if err == nil && ok {
		ok, err = nt.tree.Delete(key, val)
	}
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("index: node table has no entry for node %d", sub.ID)
	}
	for c := 1; c <= chunks(sub); c++ {
		part := sub.Value[c*NodeChunk : min(len(sub.Value), (c+1)*NodeChunk)]
		if _, err := nt.tree.Delete(ChunkKey(nil, sub.ID, c), []byte(part)); err != nil {
			return err
		}
	}
	for _, c := range sub.Children {
		if err := nt.DeleteSubtree(nil, c); err != nil {
			return err
		}
	}
	return nil
}

func (nt *NodeTable) TakeRetired() []storage.PageID { return nt.tree.TakeRetired() }
func (nt *NodeTable) TakeFresh() []storage.PageID   { return nt.tree.TakeFresh() }
func (nt *NodeTable) Copies() int                   { return nt.tree.Copies() }
func (nt *NodeTable) WalkPages(fn func(storage.PageID) error) error {
	return nt.tree.Walk(fn)
}

// NodeHeader is a decoded node entry: everything but the value bytes.
type NodeHeader struct {
	Delta    uint64 // id − parentID
	Order    uint64 // sibling order: the id unless the entry is marked
	Sym      pathdict.Sym
	HasValue bool
	Rest     []byte // value bytes
	Err      error
}

// DecodeNodeHeader decodes the value of node id's own entry; an entry that
// is short, names symbol 0 or one out of range or no parent below id, or
// holds value bytes without hasValue sets Err.
func DecodeNodeHeader(id int64, val []byte) (h NodeHeader) {
	next := func() uint64 {
		v, n := binary.Uvarint(val)
		if n <= 0 {
			h.Err = fmt.Errorf("short entry")
			return 0
		}
		val = val[n:]
		return v
	}
	h.Delta, h.Order = next(), uint64(id)
	if h.Delta == 0 && h.Err == nil {
		h.Delta = next()
		h.Order = next()
	}
	flags := next()
	h.Sym = pathdict.Sym(flags >> 1)
	h.HasValue = flags&1 != 0
	h.Rest = val
	switch {
	case h.Err != nil:
	case flags>>1 == 0 || flags>>1 > 0xFFFF:
		h.Err = fmt.Errorf("symbol %d out of range", flags>>1)
	case h.Delta == 0 || h.Delta > uint64(id):
		h.Err = fmt.Errorf("parent %d is not below the node", id-int64(h.Delta))
	case !h.HasValue && len(h.Rest) > 0:
		h.Err = fmt.Errorf("value bytes without a value")
	}
	return h
}
