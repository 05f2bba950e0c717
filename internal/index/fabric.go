package index

import (
	"encoding/binary"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// IndexFabric simulates the Index Fabric [Cooper et al.] with a regular
// B+-tree, exactly as the paper does ("since commercial database systems do
// not currently implement Patricia tries, we use regular B+-tree indices to
// simulate Index Fabric"). It indexes SchemaPath · LeafValue for rooted
// paths and returns only the last id — so single fully-specified path
// queries are one lookup, but branch points must be recovered through
// backward-link joins (the IF+Edge strategy), and there is no support for
// suffix (leading //) matches.
//
// Deviation from the original: rows exist for every rooted path prefix, not
// only root-to-leaf paths, so that existence probes on interior paths are
// answerable; listed under "Deviations" in PAPER.md.
//
// Keyed by [pathLen][path][valuefield][lastID].
type IndexFabric struct {
	tree *btree.Tree
	dict *pathdict.Dict
}

// BuildIndexFabric constructs the index.
func BuildIndexFabric(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict) (*IndexFabric, error) {
	var entries []btree.Entry
	pathrel.Emit(store, dict, nil, false, func(r pathrel.Row) {
		key := binary.BigEndian.AppendUint16(nil, uint16(len(r.Path)))
		key = pathdict.AppendPath(key, r.Path)
		key = pathdict.AppendValueField(key, r.HasValue, r.Value)
		key = pathdict.AppendID(key, r.LastID())
		entries = append(entries, btree.Entry{Key: key})
	})
	tree, err := bulk(pool, "IndexFabric", entries)
	if err != nil {
		return nil, err
	}
	return &IndexFabric{tree: tree, dict: dict}, nil
}

// Probe returns the ids at the end of the exact rooted path whose leaf
// value matches (hasValue=false probes existence rows).
func (f *IndexFabric) Probe(sc *Scratch, p pathdict.Path, hasValue bool, value string, fn func(id int64) error) (int, error) {
	sc.Prefix = binary.BigEndian.AppendUint16(sc.Prefix[:0], uint16(len(p)))
	sc.Prefix = pathdict.AppendValueField(pathdict.AppendPath(sc.Prefix, p), hasValue, value)
	return sc.scanTrailingIDs(f.tree, fn)
}

func (f *IndexFabric) Kind() Kind { return KindIndexFabric }

// Space reports the index footprint.
func (f *IndexFabric) Space() Space { return treeSpace(KindIndexFabric, f.tree) }

func (f *IndexFabric) WalkPages(fn func(storage.PageID) error) error { return f.tree.Walk(fn) }

// AppendRecord writes the Index Fabric record: tree.
func (f *IndexFabric) AppendRecord(w *CatWriter) { w.tree(f.tree) }

func openIndexFabric(r *CatReader, s Site) Structure {
	return &IndexFabric{tree: r.tree(s.Pool), dict: s.Dict}
}
