package index

import (
	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
)

// XRel implements the XRel baseline [Yoshikawa et al., TOIT 2001] that the
// paper discusses in Sections 5.2.6 and 6: rooted paths are normalised into
// a separate path table and the data rows store only a *path id* with the
// value and the node id. The normalisation saves space relative to storing
// schema paths in every key, but, exactly as the paper argues, a recursive
// (//) query can no longer be answered by one prefix scan — it takes one
// lookup per matching path id ("one to look up the path ids of the paths,
// and more to look up the results for each path id").
//
// Keyed by [4B pathID][valuefield][8B nodeID]; one B+-tree, rooted paths
// only, last id per row (like the DataGuide it only supports last-id
// retrieval, so twig stitching needs Edge climbs; the paper's argument is
// about its recursion behaviour, which this reproduces).
type XRel struct {
	tree     *btree.Tree
	dict     *pathdict.Dict
	registry // the normalised path table (the "path" relation of XRel)
}

// prepareXRel emits and sorts the index's rows, one per node and per
// value, keyed by path id.
func prepareXRel(s Site) (load, error) {
	x := &XRel{dict: s.Dict, registry: registry{ptab: pathdict.NewPathTable()}}
	entries := make([]btree.Entry, 0, pathrel.Count(s.Store, false))
	var ar arena
	var key []byte
	pathrel.Emit(s.Store, s.Dict, nil, false, func(r pathrel.Row) {
		key = appendPathID(key[:0], x.ptab.Intern(r.Path))
		key = pathdict.AppendValueField(key, r.HasValue, r.Value)
		key = pathdict.AppendID(key, r.LastID())
		entries = append(entries, btree.Entry{Key: ar.copy(key)})
	})
	sortByKey(entries)
	return func(ld *loader) (any, error) {
		var err error
		if x.tree, err = ld.bulk("XRel", entries); err != nil {
			return nil, err
		}
		return x, nil
	}, nil
}

// Probe returns the node ids at the end of one concrete path id, optionally
// restricted by leaf value.
func (x *XRel) Probe(sc *Scratch, id pathdict.PathID, hasValue bool, value string, fn func(nodeID int64) error) (int, error) {
	sc.Prefix = pathdict.AppendValueField(appendPathID(sc.Prefix[:0], id), hasValue, value)
	return sc.scanTrailingIDs(x.tree, fn)
}

func (x *XRel) Kind() Kind { return KindXRel }

// Space reports the index footprint.
func (x *XRel) Space() Space { return treeSpace(KindXRel, x.tree) }

func (x *XRel) WalkPages(fn func(storage.PageID) error) error { return x.tree.Walk(fn) }

// AppendRecord writes the XRel record: normalised path table, tree.
func (x *XRel) AppendRecord(w *CatWriter) {
	w.PathTable(x.ptab)
	w.Tree(x.tree)
}

func openXRel(r *CatReader, s Site) Structure {
	return &XRel{registry: registry{ptab: r.PathTable()}, tree: r.tree(s.Pool), dict: s.Dict}
}
