package engine

import (
	"cmp"
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

// tableNode is one node as scanNodeTable hands it over: its entry decoded
// (index.DecodeNodeHeader), its value reassembled from its continuations.
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
		id, c, ok := index.DecodeNodeKey(key)
		if !ok {
			return corrupt("key of %d bytes", len(key))
		}
		if c > 0 {
			if !held || id != cur.id || c != cont+1 || !cur.hasValue {
				return corrupt("stray value continuation %d of node %d", c, id)
			}
			cur.value = append(cur.value, val...)
			cont = c
			return nil
		}
		flush()
		if id <= ids[len(ids)-1] {
			return corrupt("node %d out of key order", id)
		}
		h := index.DecodeNodeHeader(id, val)
		if h.Err != nil {
			return corrupt("node %d: %v", id, h.Err)
		}
		if int(h.Sym) > syms {
			return corrupt("node %d: symbol %d not in the dictionary", id, h.Sym)
		}
		parentID := id - int64(h.Delta)
		parent := find(parentID)
		if parent < 0 {
			return corrupt("node %d: parent %d not read before it", id, parentID)
		}
		cur = tableNode{id: id, parent: parent, order: h.Order, sym: h.Sym,
			hasValue: h.HasValue, value: append(cur.value[:0], h.Rest...)}
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
