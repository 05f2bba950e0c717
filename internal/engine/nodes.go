package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

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
// A value longer than nodeChunk bytes continues in entries keyed by the id
// plus a 2-byte big-endian chunk number from 1, each holding the next
// nodeChunk bytes; they sort between the node and the next id.
const (
	nodeTableName = "NODES"
	nodeKeyLen    = 8
	chunkKeyLen   = nodeKeyLen + 2
	// nodeChunk leaves room in btree.MaxEntrySize for a key and the three
	// uvarints of a marked node's header.
	nodeChunk = btree.MaxEntrySize - 64
)

// nodeTable is one version of the node table. A writer mutates only a
// CloneCOW of the published handle (see btree.Tree).
type nodeTable struct {
	tree *btree.Tree
	dict *pathdict.Dict

	kbuf, vbuf []byte // entry scratch of the writer that owns the handle
}

var _ index.Lifecycle = (*nodeTable)(nil)

func nodeKey(dst []byte, id int64) []byte { return binary.BigEndian.AppendUint64(dst, uint64(id)) }

func chunkKey(dst []byte, id int64, chunk int) []byte {
	return binary.BigEndian.AppendUint16(nodeKey(dst, id), uint16(chunk))
}

// chunks returns the number of continuation entries n's value needs.
func chunks(n *xmldb.Node) int { return max(0, (len(n.Value)-1)/nodeChunk) }

// appendNode hands n's entries — the node, then its value's continuations
// — to add, whose key and val alias the table's scratch buffers and are
// valid only during the call. order is n's sibling order, explicit when it
// is not n's id.
func (nt *nodeTable) appendNode(n *xmldb.Node, parentID int64, order uint64, add func(key, val []byte) error) error {
	if n.ID <= parentID {
		return fmt.Errorf("engine: node table: node %d does not follow its parent %d", n.ID, parentID)
	}
	if c := chunks(n); c > 0xFFFF {
		return fmt.Errorf("engine: node table: value of node %d is %d bytes, more than %d", n.ID, len(n.Value), 0xFFFF*nodeChunk)
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
	val = append(val, n.Value[:min(len(n.Value), nodeChunk)]...)
	nt.vbuf = val
	nt.kbuf = nodeKey(nt.kbuf[:0], n.ID)
	if err := add(nt.kbuf, val); err != nil {
		return err
	}
	for c := 1; c <= chunks(n); c++ {
		nt.vbuf = append(nt.vbuf[:0], n.Value[c*nodeChunk:min(len(n.Value), (c+1)*nodeChunk)]...)
		nt.kbuf = chunkKey(nt.kbuf[:0], n.ID, c)
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
func (nt *nodeTable) appendSubtree(n *xmldb.Node, parentID int64, order uint64, add func(key, val []byte) error) error {
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

// bulkLoadNodeTable builds the node table of store in one bulk load. The
// store is walked in document order, which is id order unless inserts
// attached subtrees out of it; only then are the entries sorted.
func bulkLoadNodeTable(pool *storage.Pool, dict *pathdict.Dict, store *xmldb.Store) (*nodeTable, error) {
	nt := &nodeTable{dict: dict}
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

// CloneCOW returns a writable copy-on-write version of the table (see
// btree.Tree.CloneCOW).
func (nt *nodeTable) CloneCOW(frontier storage.PageID) *nodeTable {
	return &nodeTable{tree: nt.tree.CloneCOW(frontier), dict: nt.dict}
}

// InsertSubtree adds the entries of sub, just attached in store as the last
// child of its parent.
func (nt *nodeTable) InsertSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	parent := store.Parent(sub)
	if parent == nil || len(parent.Children) == 0 || parent.Children[len(parent.Children)-1] != sub {
		return fmt.Errorf("engine: node table: node %d is not its parent's last child", sub.ID)
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
func (nt *nodeTable) order(id int64) (order uint64, err error) {
	order = uint64(id)
	err = nt.tree.GetRef(nodeKey(nil, id), func(val []byte) error {
		if len(val) == 0 || val[0] != 0 {
			return nil // unmarked: the order is the id
		}
		h := decodeNodeHeader(val)
		if h.err != nil {
			return fmt.Errorf("%w: node table entry %d: %v", index.ErrCorruptCatalog, id, h.err)
		}
		order = h.order
		return nil
	})
	return order, err
}

// DeleteSubtree removes the entries of the subtree at sub.
func (nt *nodeTable) DeleteSubtree(_ *xmldb.Store, sub *xmldb.Node) error {
	key := nodeKey(nil, sub.ID)
	val, ok, err := nt.tree.Get(key)
	if err == nil && ok {
		ok, err = nt.tree.Delete(key, val)
	}
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("engine: node table has no entry for node %d", sub.ID)
	}
	for c := 1; c <= chunks(sub); c++ {
		part := sub.Value[c*nodeChunk : min(len(sub.Value), (c+1)*nodeChunk)]
		if _, err := nt.tree.Delete(chunkKey(nil, sub.ID, c), []byte(part)); err != nil {
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

func (nt *nodeTable) TakeRetired() []storage.PageID { return nt.tree.TakeRetired() }
func (nt *nodeTable) TakeFresh() []storage.PageID   { return nt.tree.TakeFresh() }
func (nt *nodeTable) WalkPages(fn func(storage.PageID) error) error {
	return nt.tree.Walk(fn)
}

// nodeHeader is a decoded node entry: everything but the value bytes.
type nodeHeader struct {
	delta    uint64 // id − parentID
	order    uint64
	marked   bool
	sym      pathdict.Sym
	hasValue bool
	rest     []byte // value bytes
	err      error
}

func decodeNodeHeader(val []byte) (h nodeHeader) {
	next := func() uint64 {
		v, n := binary.Uvarint(val)
		if n <= 0 {
			h.err = fmt.Errorf("short entry")
			return 0
		}
		val = val[n:]
		return v
	}
	h.delta = next()
	if h.delta == 0 && h.err == nil {
		h.marked = true
		h.delta = next()
		h.order = next()
	}
	flags := next()
	h.sym = pathdict.Sym(flags >> 1)
	h.hasValue = flags&1 != 0
	if flags>>1 > 0xFFFF {
		h.err = fmt.Errorf("symbol %d out of range", flags>>1)
	}
	h.rest = val
	return h
}

// tableNode is one node as scanNodeTable hands it over: its entry decoded,
// its value reassembled from its continuations.
type tableNode struct {
	id       int64
	parent   int    // the parent's position in scan order (0: the virtual root)
	order    uint64 // sibling order: the id unless the entry is marked
	sym      pathdict.Sym
	hasValue bool
	value    []byte // valid only during the call
}

// scanNodeTable reads the table m describes, its pages from dev (see
// btree.ReadEntries), and hands every node to fn in key order, numbering
// them by position from 1 so that fn can find a node's parent among the
// nodes it was handed before. It returns the last (largest) id read. Any
// entry that is short, out of key order, names a symbol dict lacks, has a
// value without hasValue, or whose parent was not read before it fails
// the scan with an error matching index.ErrCorruptCatalog.
//
// A node's parent is looked up on the path from the last node read up to
// its document root — where key order, which is mostly document order,
// nearly always puts it — and otherwise by binary search over the ids read
// so far, which key order keeps sorted.
func scanNodeTable(dev *storage.FileDisk, m btree.Meta, dict *pathdict.Dict, fn func(*tableNode)) (int64, error) {
	var (
		ids  = []int64{0} // every id read, by position; 0 is the virtual root
		path = []int{0}   // positions of the last node read and its known ancestors
		cur  tableNode    // the last node read, handed over once its value is whole
		cont int          // continuation chunks read for it
		held bool         // cur is not yet handed over
		syms = dict.Size()
	)
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: node table: "+format, append([]any{index.ErrCorruptCatalog}, args...)...)
	}
	find := func(id int64) int {
		for i := len(path) - 1; i >= 0; i-- {
			if ids[path[i]] == id {
				path = path[:i+1]
				return path[i]
			}
		}
		pos, ok := slices.BinarySearch(ids, id)
		if !ok {
			return -1
		}
		path = append(path[:0], pos)
		return pos
	}
	flush := func() {
		if held {
			held = false
			fn(&cur)
		}
	}
	err := btree.ReadEntries(dev, m, func(key, val []byte) error {
		switch len(key) {
		case chunkKeyLen:
			id := int64(binary.BigEndian.Uint64(key))
			c := int(binary.BigEndian.Uint16(key[nodeKeyLen:]))
			if !held || id != cur.id || c != cont+1 || !cur.hasValue {
				return corrupt("stray value continuation %d of node %d", c, id)
			}
			cur.value = append(cur.value, val...)
			cont = c
			return nil
		case nodeKeyLen:
		default:
			return corrupt("key of %d bytes", len(key))
		}
		flush()
		id := int64(binary.BigEndian.Uint64(key))
		if id <= ids[len(ids)-1] {
			return corrupt("node %d out of key order", id)
		}
		h := decodeNodeHeader(val)
		if h.err != nil {
			return corrupt("node %d: %v", id, h.err)
		}
		if h.sym == 0 || int(h.sym) > syms {
			return corrupt("node %d: symbol %d not in the dictionary", id, h.sym)
		}
		if !h.hasValue && len(h.rest) > 0 {
			return corrupt("node %d: value bytes without a value", id)
		}
		parentID := id - int64(h.delta)
		parent := -1
		if parentID < id {
			parent = find(parentID)
		}
		if parent < 0 {
			return corrupt("node %d: parent %d not read before it", id, parentID)
		}
		cur = tableNode{id: id, parent: parent, order: uint64(id), sym: h.sym,
			hasValue: h.hasValue, value: append(cur.value[:0], h.rest...)}
		if h.marked {
			cur.order = h.order
		}
		held, cont = true, 0
		ids = append(ids, id)
		path = append(path, len(ids)-1)
		return nil
	})
	if err != nil {
		if !errors.Is(err, index.ErrCorruptCatalog) {
			err = fmt.Errorf("%w: node table: %w", index.ErrCorruptCatalog, err)
		}
		return 0, err
	}
	flush()
	return ids[len(ids)-1], nil
}

// readNodeTable rebuilds the store the table m describes (see
// scanNodeTable), its labels from dict. The documents are built detached
// and then restored whole; a parent with a child whose order is not its id
// has its children sorted by order.
func readNodeTable(dev *storage.FileDisk, m btree.Meta, dict *pathdict.Dict) (*xmldb.Store, error) {
	labels := make([]string, dict.Size()+1)
	for sym := range labels[1:] {
		labels[sym+1] = dict.Label(pathdict.Sym(sym + 1))
	}
	vr := &xmldb.Node{} // stands in for the store's virtual root
	var (
		nodes    = []*xmldb.Node{vr} // every node read, by position
		explicit map[int64]uint64    // order of every marked node
		resort   map[*xmldb.Node]bool
	)
	_, err := scanNodeTable(dev, m, dict, func(tn *tableNode) {
		parent := nodes[tn.parent]
		n := &xmldb.Node{ID: tn.id, Label: labels[tn.sym], HasValue: tn.hasValue}
		if tn.hasValue {
			n.Value = string(tn.value)
		}
		if tn.order != uint64(tn.id) {
			if explicit == nil {
				explicit, resort = map[int64]uint64{}, map[*xmldb.Node]bool{}
			}
			explicit[tn.id] = tn.order
			resort[parent] = true
		}
		parent.Children = append(parent.Children, n)
		nodes = append(nodes, n)
	})
	if err != nil {
		return nil, err
	}
	order := func(n *xmldb.Node) uint64 {
		if o, ok := explicit[n.ID]; ok {
			return o
		}
		return uint64(n.ID)
	}
	for p := range resort {
		slices.SortStableFunc(p.Children, func(a, b *xmldb.Node) int { return cmp.Compare(order(a), order(b)) })
	}
	store := xmldb.NewStore()
	for _, root := range vr.Children {
		if err := store.RestoreDocument(&xmldb.Document{Root: root}); err != nil {
			return nil, fmt.Errorf("%w: node table: %v", index.ErrCorruptCatalog, err)
		}
	}
	return store, nil
}

// readNodeStats streams the table m describes into the statistics
// stats.Collect would derive from the store it holds, without building
// that store (see scanNodeTable), and returns them with the last id read.
// A node's rooted path is its parent's plus its own label.
func readNodeStats(dev *storage.FileDisk, m btree.Meta, dict *pathdict.Dict) (*stats.Stats, int64, error) {
	c := stats.NewCollector()
	paths := []pathdict.PathID{stats.NoPath} // every node's rooted path, by position
	last, err := scanNodeTable(dev, m, dict, func(tn *tableNode) {
		paths = append(paths, c.Node(paths[tn.parent], tn.sym, tn.hasValue, tn.value))
	})
	if err != nil {
		return nil, 0, err
	}
	return c.Stats(), last, nil
}
