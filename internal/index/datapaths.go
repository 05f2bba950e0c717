package index

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// DataPaths is the DATAPATHS index (paper Section 3.3): a B+-tree on
// HeadId · LeafValue · ReverseSchemaPath over *all* subpaths of root-to-leaf
// paths, returning the full IdList. It answers both the FreeIndex problem
// (probe with the virtual root, HeadId 0) and the BoundIndex problem (probe
// with a known node id) in one lookup, which is what enables
// index-nested-loop join plans.
type DataPaths struct {
	tree *btree.Tree
	dict *pathdict.Dict
	ptab *pathdict.PathTable
	opts PathsOptions
}

// BuildDataPaths constructs the index. Every distinct subpath is registered
// in ptab when non-nil (the same registry drives ASR/JI table creation and
// SchemaPathId compression).
func BuildDataPaths(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict, ptab *pathdict.PathTable, opts PathsOptions) (*DataPaths, error) {
	if opts.PathIDKeys && ptab == nil {
		return nil, fmt.Errorf("index: PathIDKeys requires a PathTable")
	}
	var entries []btree.Entry
	var rev pathdict.Path
	pathrel.EmitAllPaths(store, dict, func(r pathrel.Row) {
		if opts.KeepHead != nil && r.HeadID != 0 && !opts.KeepHead(r.HeadID) {
			return
		}
		var key []byte
		if opts.PathIDKeys {
			id := ptab.Intern(r.Path)
			key = pathdict.AppendID(nil, r.HeadID)
			key = pathdict.AppendValueField(key, r.HasValue, r.Value)
			key = appendPathID(key, id)
		} else {
			if ptab != nil {
				ptab.Intern(r.Path)
			}
			rev = append(rev[:0], r.Path...)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			key = pathdict.DataPathsKey(nil, r.HeadID, r.HasValue, r.Value, rev)
		}
		entries = append(entries, btree.Entry{Key: key, Val: encodeIDs(r.IDs, opts.RawIDs)})
	})
	tree, err := bulk(pool, "DATAPATHS", entries)
	if err != nil {
		return nil, err
	}
	return &DataPaths{tree: tree, dict: dict, ptab: ptab, opts: opts}, nil
}

// Probe is the BoundIndex lookup: all rows headed at headID whose LeafValue
// matches and whose schema path ends with the (forward) suffix. headID 0 is
// the FreeIndex case. fn receives the concrete forward path (starting at
// the head for real heads, at the document root for HeadId 0) and the
// IdList (ids excluding a real head). fn's arguments are reused; copy to
// retain. Returns the number of rows visited.
func (dp *DataPaths) Probe(headID int64, hasValue bool, value string, suffix pathdict.Path, fn func(fwd pathdict.Path, ids []int64) error) (int, error) {
	var sc Scratch
	return dp.ProbeWith(&sc, headID, hasValue, value, suffix, fn)
}

// ProbeWith is Probe drawing every buffer from sc (see Scratch), so
// repeated probes — in particular the per-head-id streams of an
// index-nested-loop join — run without allocating.
func (dp *DataPaths) ProbeWith(sc *Scratch, headID int64, hasValue bool, value string, suffix pathdict.Path, fn func(fwd pathdict.Path, ids []int64) error) (int, error) {
	if dp.opts.PathIDKeys {
		return 0, fmt.Errorf("index: DATAPATHS built with PathIDKeys cannot answer suffix probes (lossy compression, Section 4.2)")
	}
	sc.rev = reverseInto(sc.rev[:0], suffix)
	sc.prefix = pathdict.DataPathsKey(sc.prefix[:0], headID, hasValue, value, sc.rev)
	it := &sc.it
	if err := dp.tree.SeekPrefixInto(sc.prefix, it); err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	for ; it.Valid(); it.Next() {
		key := it.Key()
		if len(key) < 8 {
			return rows, fmt.Errorf("pathdict: short id field (%d bytes)", len(key))
		}
		rest, err := pathdict.SkipValueField(key[8:])
		if err != nil {
			return rows, err
		}
		sc.fwd, err = pathdict.AppendPathReversed(sc.fwd[:0], rest)
		if err != nil {
			return rows, err
		}
		sc.ids, err = decodeIDs(sc.ids[:0], it.ValueRef(), dp.opts.RawIDs)
		if err != nil {
			return rows, err
		}
		rows++
		if err := fn(sc.fwd, sc.ids); err != nil {
			return rows, err
		}
	}
	return rows, it.Err()
}

// ProbePathID is the exact-path bound lookup available under SchemaPathId
// compression.
func (dp *DataPaths) ProbePathID(headID int64, hasValue bool, value string, path pathdict.Path, fn func(ids []int64) error) (int, error) {
	if !dp.opts.PathIDKeys {
		return 0, fmt.Errorf("index: ProbePathID requires a PathIDKeys build")
	}
	id, ok := dp.ptab.Lookup(path)
	if !ok {
		return 0, nil
	}
	prefix := pathdict.AppendID(nil, headID)
	prefix = pathdict.AppendValueField(prefix, hasValue, value)
	prefix = appendPathID(prefix, id)
	it, err := dp.tree.SeekPrefix(prefix)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	var ids []int64
	for ; it.Valid(); it.Next() {
		ids, err = decodeIDs(ids[:0], it.ValueRef(), dp.opts.RawIDs)
		if err != nil {
			return rows, err
		}
		rows++
		if err := fn(ids); err != nil {
			return rows, err
		}
	}
	return rows, it.Err()
}

func (dp *DataPaths) Kind() Kind { return KindDataPaths }

// Space reports the index footprint.
func (dp *DataPaths) Space() Space { return treeSpace(KindDataPaths, dp.tree) }

func (dp *DataPaths) WalkPages(fn func(storage.PageID) error) error { return dp.tree.Walk(fn) }

// AppendRecord writes the DATAPATHS record, laid out as ROOTPATHS'.
func (dp *DataPaths) AppendRecord(w *CatWriter) {
	w.pathsOptions(dp.opts)
	w.tree(dp.tree)
}

// openDataPaths re-supplies KeepHead from the site — a function is not
// serialisable — so incremental updates after a reopen prune as before.
func openDataPaths(r *CatReader, s Site) Structure {
	opts := r.pathsOptions()
	opts.KeepHead = s.Opts.KeepHead
	return &DataPaths{tree: r.tree(s.Pool), dict: s.Dict, ptab: s.Ptab, opts: opts}
}

// Tree exposes the underlying B+-tree for white-box tests.
func (dp *DataPaths) Tree() *btree.Tree { return dp.tree }
