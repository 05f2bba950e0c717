package index

import (
	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
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
	tree *btree.Tree
	dict *pathdict.Dict
	ptab *pathdict.PathTable // the normalised path table
}

// BuildXRel constructs the index.
func BuildXRel(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict) (*XRel, error) {
	x := &XRel{dict: dict, ptab: pathdict.NewPathTable()}
	var entries []btree.Entry
	pathrel.EmitRootPaths(store, dict, func(r pathrel.Row) {
		id := x.ptab.Intern(r.Path)
		key := appendPathID(nil, id)
		key = pathdict.AppendValueField(key, r.HasValue, r.Value)
		key = pathdict.AppendID(key, r.LastID())
		entries = append(entries, btree.Entry{Key: key})
	})
	tree, err := bulk(pool, "XRel", entries)
	if err != nil {
		return nil, err
	}
	x.tree = tree
	return x, nil
}

// Paths exposes the normalised path table (the "path" relation of XRel).
func (x *XRel) Paths() *pathdict.PathTable { return x.ptab }

// MatchingPathIDs resolves a linear pattern against the path table — the
// XRel step that turns a // query into several equality conditions on the
// path id. The returned ids each cost one separate index lookup.
func (x *XRel) MatchingPathIDs(pat []pathdict.PStep) []pathdict.PathID {
	var out []pathdict.PathID
	x.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		if pathdict.MatchPath(pat, p) {
			out = append(out, id)
		}
	})
	return out
}

// Probe returns the node ids at the end of one concrete path id, optionally
// restricted by leaf value.
func (x *XRel) Probe(id pathdict.PathID, hasValue bool, value string, fn func(nodeID int64) error) (int, error) {
	prefix := appendPathID(nil, id)
	prefix = pathdict.AppendValueField(prefix, hasValue, value)
	it, err := x.tree.SeekPrefix(prefix)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	for ; it.Valid(); it.Next() {
		key := it.Key()
		nid, _, err := pathdict.DecodeID(key[len(key)-8:])
		if err != nil {
			return rows, err
		}
		rows++
		if err := fn(nid); err != nil {
			return rows, err
		}
	}
	return rows, it.Err()
}

func (x *XRel) Kind() Kind { return KindXRel }

// Space reports the index footprint.
func (x *XRel) Space() Space { return treeSpace(KindXRel, x.tree) }

func (x *XRel) WalkPages(fn func(storage.PageID) error) error { return x.tree.Walk(fn) }

// AppendRecord writes the XRel record: normalised path table, tree.
func (x *XRel) AppendRecord(w *CatWriter) {
	w.PathTable(x.ptab)
	w.tree(x.tree)
}

func openXRel(r *CatReader, s Site) Structure {
	return &XRel{ptab: r.PathTable(), tree: r.tree(s.Pool), dict: s.Dict}
}
