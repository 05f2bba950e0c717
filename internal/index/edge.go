package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// Edge is the Edge-table baseline [Florescu/Kossman] with the three Lore
// indices the paper reports as most useful: the value index (tag + value ->
// node id), the forward link index (parent id + tag -> child id) and the
// backward link index (child id -> parent). Path steps are evaluated by
// joining through these indices one step at a time — the per-step-join cost
// the paper's Figure 11 exposes.
type Edge struct {
	value    *btree.Tree // [tag][valuefield][nodeID] -> nil
	forward  *btree.Tree // [parentID][tag][childID] -> nil
	backward *btree.Tree // [childID] -> [parentID][parentTag]
	dict     *pathdict.Dict
}

// BuildEdge constructs the edge table indices. Document roots are recorded
// as children of the virtual root (parent id 0).
func BuildEdge(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict) (*Edge, error) {
	var valEntries, fwdEntries, bwdEntries []btree.Entry
	var walk func(n *xmldb.Node, parent *xmldb.Node)
	walk = func(n, parent *xmldb.Node) {
		sym := dict.Intern(n.Label)
		var parentSym pathdict.Sym
		var parentID int64
		if parent != nil {
			parentID = parent.ID
			if parent.ID != 0 {
				parentSym = dict.Intern(parent.Label)
			}
		}
		if n.HasValue {
			key := appendSym(nil, sym)
			key = pathdict.AppendValueField(key, true, n.Value)
			key = pathdict.AppendID(key, n.ID)
			valEntries = append(valEntries, btree.Entry{Key: key})
		}
		fkey := pathdict.AppendID(nil, parentID)
		fkey = appendSym(fkey, sym)
		fkey = pathdict.AppendID(fkey, n.ID)
		fwdEntries = append(fwdEntries, btree.Entry{Key: fkey})

		bkey := pathdict.AppendID(nil, n.ID)
		bval := pathdict.AppendID(nil, parentID)
		bval = appendSym(bval, parentSym)
		bwdEntries = append(bwdEntries, btree.Entry{Key: bkey, Val: bval})

		for _, c := range n.Children {
			walk(c, n)
		}
	}
	for _, d := range store.Docs {
		walk(d.Root, store.VirtualRoot)
	}
	value, err := bulk(pool, "Edge/value", valEntries)
	if err != nil {
		return nil, err
	}
	forward, err := bulk(pool, "Edge/forward", fwdEntries)
	if err != nil {
		return nil, err
	}
	backward, err := bulk(pool, "Edge/backward", bwdEntries)
	if err != nil {
		return nil, err
	}
	return &Edge{value: value, forward: forward, backward: backward, dict: dict}, nil
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

// Parent returns the parent id and label of childID (the backward link
// index). The virtual root's parent is reported as (0, "", false).
func (e *Edge) Parent(sc *Scratch, childID int64) (parentID int64, label string, ok bool, err error) {
	sc.Prefix = pathdict.AppendID(sc.Prefix[:0], childID)
	var sym pathdict.Sym
	err = e.backward.GetRef(sc.Prefix, func(val []byte) error {
		id, rest, err := pathdict.DecodeID(val)
		if err != nil {
			return corrupt(err)
		}
		if len(rest) != 2 {
			return corrupt(fmt.Errorf("backward link value of %d bytes", len(val)))
		}
		parentID = id
		sym = pathdict.Sym(binary.BigEndian.Uint16(rest))
		ok = true
		return nil
	})
	if err != nil || !ok {
		return 0, "", false, err
	}
	return parentID, e.dict.Label(sym), true, nil
}

func (e *Edge) Kind() Kind { return KindEdge }

// Space reports the combined footprint of the three edge indices.
func (e *Edge) Space() Space { return treeSpace(KindEdge, e.value, e.forward, e.backward) }

func (e *Edge) WalkPages(fn func(storage.PageID) error) error {
	return walkTrees(fn, e.value, e.forward, e.backward)
}

// AppendRecord writes the Edge record: value tree, forward tree, backward
// tree.
func (e *Edge) AppendRecord(w *CatWriter) {
	w.Tree(e.value)
	w.Tree(e.forward)
	w.Tree(e.backward)
}

func openEdge(r *CatReader, s Site) Structure {
	return &Edge{value: r.tree(s.Pool), forward: r.tree(s.Pool), backward: r.tree(s.Pool), dict: s.Dict}
}

func appendSym(dst []byte, s pathdict.Sym) []byte {
	return binary.BigEndian.AppendUint16(dst, uint16(s))
}
