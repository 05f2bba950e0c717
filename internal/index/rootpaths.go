package index

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/idlist"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// PathsOptions configures the ROOTPATHS / DATAPATHS builds, exposing the
// compression knobs of Section 4.
type PathsOptions struct {
	// RawIDs disables the differential encoding of IdLists (Section 4.1),
	// storing 8 bytes per id; used to measure the encoding's savings.
	RawIDs bool

	// PathIDKeys replaces the reverse schema path in the key with a fixed
	// 4-byte SchemaPathId (Section 4.2). Lossy: patterns with a leading
	// or interior // can no longer be answered by prefix match; probes
	// must name a concrete path. Requires a PathTable.
	PathIDKeys bool

	// KeepHead, when non-nil, prunes rows whose head is a data node for
	// which KeepHead returns false (Section 4.3, HeadId pruning by
	// workload branch points). Virtual-root rows (HeadId 0) are always
	// kept. DATAPATHS only.
	KeepHead func(int64) bool
}

// RootPaths is the ROOTPATHS index (paper Section 3.2): a B+-tree on
// LeafValue · ReverseSchemaPath over root-to-node path prefixes, returning
// the full IdList. It answers the FreeIndex problem — all matches of a
// PCsubpath pattern, including ones with a leading // — in one lookup.
type RootPaths struct {
	tree *btree.Tree
	dict *pathdict.Dict
	ptab *pathdict.PathTable
	opts PathsOptions
}

// BuildRootPaths constructs the index from the store. Labels are interned
// into dict; if ptab is non-nil every distinct rooted schema path is
// registered in it.
func BuildRootPaths(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict, ptab *pathdict.PathTable, opts PathsOptions) (*RootPaths, error) {
	if opts.PathIDKeys && ptab == nil {
		return nil, fmt.Errorf("index: PathIDKeys requires a PathTable")
	}
	if opts.KeepHead != nil {
		return nil, fmt.Errorf("index: HeadId pruning does not apply to ROOTPATHS")
	}
	var entries []btree.Entry
	var rev pathdict.Path
	pathrel.EmitRootPaths(store, dict, func(r pathrel.Row) {
		var key []byte
		if opts.PathIDKeys {
			id := ptab.Intern(r.Path)
			key = pathdict.AppendValueField(nil, r.HasValue, r.Value)
			key = appendPathID(key, id)
		} else {
			if ptab != nil {
				ptab.Intern(r.Path)
			}
			rev = append(rev[:0], r.Path...)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			key = pathdict.RootPathsKey(nil, r.HasValue, r.Value, rev)
		}
		entries = append(entries, btree.Entry{Key: key, Val: encodeIDs(r.IDs, opts.RawIDs)})
	})
	tree, err := bulk(pool, "ROOTPATHS", entries)
	if err != nil {
		return nil, err
	}
	return &RootPaths{tree: tree, dict: dict, ptab: ptab, opts: opts}, nil
}

// Probe is the FreeIndex lookup: it scans all rows whose LeafValue equals
// (hasValue, value) and whose schema path *ends with* the given (forward)
// path suffix, calling fn with the concrete forward path and full IdList of
// each row. fn's arguments are reused across calls; copy to retain.
// Returns the number of rows visited.
func (rp *RootPaths) Probe(hasValue bool, value string, suffix pathdict.Path, fn func(fwd pathdict.Path, ids []int64) error) (int, error) {
	var sc Scratch
	return rp.ProbeWith(&sc, hasValue, value, suffix, fn)
}

// ProbeWith is Probe drawing every buffer — probe prefix, decoded path,
// id list, tree iterator — from sc, so repeated probes through one
// Scratch run without allocating.
func (rp *RootPaths) ProbeWith(sc *Scratch, hasValue bool, value string, suffix pathdict.Path, fn func(fwd pathdict.Path, ids []int64) error) (int, error) {
	if rp.opts.PathIDKeys {
		return 0, fmt.Errorf("index: ROOTPATHS built with PathIDKeys cannot answer suffix probes (lossy compression, Section 4.2)")
	}
	sc.rev = reverseInto(sc.rev[:0], suffix)
	sc.prefix = pathdict.RootPathsKey(sc.prefix[:0], hasValue, value, sc.rev)
	it := &sc.it
	if err := rp.tree.SeekPrefixInto(sc.prefix, it); err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	for ; it.Valid(); it.Next() {
		rest, err := pathdict.SkipValueField(it.Key())
		if err != nil {
			return rows, err
		}
		sc.fwd, err = pathdict.AppendPathReversed(sc.fwd[:0], rest)
		if err != nil {
			return rows, err
		}
		sc.ids, err = decodeIDs(sc.ids[:0], it.ValueRef(), rp.opts.RawIDs)
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

// ProbePathID is the exact-path lookup available under SchemaPathId
// compression: only fully specified paths (no //) can be answered.
func (rp *RootPaths) ProbePathID(hasValue bool, value string, path pathdict.Path, fn func(ids []int64) error) (int, error) {
	if !rp.opts.PathIDKeys {
		return 0, fmt.Errorf("index: ProbePathID requires a PathIDKeys build")
	}
	id, ok := rp.ptab.Lookup(path)
	if !ok {
		return 0, nil // path does not occur in the data
	}
	prefix := pathdict.AppendValueField(nil, hasValue, value)
	prefix = appendPathID(prefix, id)
	it, err := rp.tree.SeekPrefix(prefix)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	var ids []int64
	for ; it.Valid(); it.Next() {
		ids, err = decodeIDs(ids[:0], it.ValueRef(), rp.opts.RawIDs)
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

func (rp *RootPaths) Kind() Kind { return KindRootPaths }

// Space reports the index footprint.
func (rp *RootPaths) Space() Space { return treeSpace(KindRootPaths, rp.tree) }

func (rp *RootPaths) WalkPages(fn func(storage.PageID) error) error { return rp.tree.Walk(fn) }

// AppendRecord writes the ROOTPATHS record: [1B flags: 1 RawIDs, 2
// PathIDKeys] tree. The path table is the shared one.
func (rp *RootPaths) AppendRecord(w *CatWriter) {
	w.pathsOptions(rp.opts)
	w.tree(rp.tree)
}

func openRootPaths(r *CatReader, s Site) Structure {
	opts := r.pathsOptions()
	return &RootPaths{tree: r.tree(s.Pool), dict: s.Dict, ptab: s.Ptab, opts: opts}
}

// Tree exposes the underlying B+-tree for white-box tests.
func (rp *RootPaths) Tree() *btree.Tree { return rp.tree }

func encodeIDs(ids []int64, raw bool) []byte {
	if raw {
		return idlist.EncodeRaw(nil, ids)
	}
	return idlist.EncodeDelta(nil, ids)
}

func decodeIDs(dst []int64, buf []byte, raw bool) ([]int64, error) {
	if raw {
		return idlist.DecodeRaw(dst, buf)
	}
	return idlist.DecodeDeltaInto(dst, buf)
}

func reverseInto(dst, src pathdict.Path) pathdict.Path {
	for i := len(src) - 1; i >= 0; i-- {
		dst = append(dst, src[i])
	}
	return dst
}

func appendPathID(dst []byte, id pathdict.PathID) []byte {
	u := uint32(id)
	return append(dst, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
