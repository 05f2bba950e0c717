// Package pathrel enumerates the paper's 4-ary relational representation of
// an XML database (Section 3.1, Figure 2):
//
//	(HeadId, SchemaPath, LeafValue, IdList)
//
// A row exists for every downward chain of nodes head..d: HeadId is the id
// of the chain's first node, SchemaPath the labels along the chain
// (including the head's own label), and IdList the ids along the chain
// except the head's. Chains headed at the virtual root (HeadId 0) omit the
// virtual root's empty label, which makes them exactly the root-path rows of
// ROOTPATHS (Figure 4: SchemaPath "B", IdList [1]).
//
// For every chain whose last node carries a leaf string value, two rows are
// emitted: one with a null LeafValue and one with the value — matching
// Figure 2, where both (BT, null, [2]) and (BT, XML, [2]) appear.
package pathrel

import (
	"repro/internal/pathdict"
	"repro/internal/xmldb"
)

// Row is one tuple of the 4-ary relation. Path and IDs are only valid for
// the duration of the emit callback; implementations that retain them must
// copy.
type Row struct {
	HeadID   int64
	Path     pathdict.Path // labels head..d (virtual-root label omitted)
	HasValue bool
	Value    string
	IDs      []int64 // ids along the chain, excluding the head
}

// PosID returns the node id bound to path position i of this row, unifying
// real heads (position 0 is the head itself) and virtual-root rows
// (position i is IDs[i]).
func (r Row) PosID(i int) int64 {
	if r.HeadID == 0 {
		return r.IDs[i]
	}
	if i == 0 {
		return r.HeadID
	}
	return r.IDs[i-1]
}

// LastID returns the id of the chain's last node.
func (r Row) LastID() int64 {
	if len(r.IDs) > 0 {
		return r.IDs[len(r.IDs)-1]
	}
	return r.HeadID
}

// Emit enumerates the rows of the 4-ary relation whose chain ends inside
// the subtree rooted at sub — or, with a nil sub, anywhere in the store,
// document by document. Without allHeads only the chains headed at the
// virtual root are emitted: the root-to-node path prefixes ROOTPATHS
// stores. With allHeads every chain is, one per head — the virtual root,
// then each ancestor-or-self from the document root down: the DATAPATHS
// input, whose size grows with data depth (the paper's explanation for
// DATAPATHS being much larger on XMark than on shallow DBLP). Labels
// encountered are interned into dict.
//
// Any chain that touches a subtree node ends at one (chains run downward),
// so the rows of a subtree are exactly what ROOTPATHS and DATAPATHS must
// insert when it is attached, or delete while it is still attached. The
// paper's Section 7 example is the ROOTPATHS case: "inserting an author
// with a certain name to an existing book requires inserting all prefixes
// of the /book/author/name path" — one row per new node (plus value rows),
// each carrying the full root path.
//
// Nodes are visited in pre-order; a node's null-value rows come before its
// value rows, and within each the heads run top down. Bulk loads sort
// stably and equal keys are common (two same-valued siblings under one
// head), so this order reaches the page images.
func Emit(store *xmldb.Store, dict *pathdict.Dict, sub *xmldb.Node, allHeads bool, fn func(Row)) {
	var (
		syms pathdict.Path
		ids  []int64
	)
	// chains emits the rows of the chains ending at the current node.
	chains := func(hasValue bool, value string) {
		fn(Row{Path: syms, HasValue: hasValue, Value: value, IDs: ids})
		if allHeads {
			for s := range syms {
				fn(Row{HeadID: ids[s], Path: syms[s:], HasValue: hasValue, Value: value, IDs: ids[s+1:]})
			}
		}
	}
	var rec func(n *xmldb.Node)
	rec = func(n *xmldb.Node) {
		syms = append(syms, dict.Intern(n.Label))
		ids = append(ids, n.ID)
		chains(false, "")
		if n.HasValue {
			chains(true, n.Value)
		}
		for _, c := range n.Children {
			rec(c)
		}
		syms = syms[:len(syms)-1]
		ids = ids[:len(ids)-1]
	}
	if sub == nil {
		for _, d := range store.Docs {
			rec(d.Root)
		}
		return
	}
	for _, a := range store.Ancestors(sub) {
		syms = append(syms, dict.Intern(a.Label))
		ids = append(ids, a.ID)
	}
	rec(sub)
}
