package index

import (
	"bytes"
	"fmt"
	"slices"

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
	// kept, so free probes stay complete; bound ones may not be (see
	// Paths.PrunesHeads). DATAPATHS only, and in memory only: the
	// predicate cannot be persisted, so the engine refuses to write a
	// pruned index to a file.
	KeepHead func(int64) bool
}

// Paths is the paper's pair of path indices — one B+-tree returning the
// full IdList — in either of its two shapes:
//
// ROOTPATHS (Section 3.2) is keyed LeafValue · ReverseSchemaPath over the
// root-to-node path prefixes. It answers the FreeIndex problem — all
// matches of a PCsubpath pattern, including ones with a leading // — in one
// lookup.
//
// DATAPATHS (Section 3.3, headed) is ROOTPATHS behind a HeadId key column,
// over *all* subpaths of root-to-leaf paths. It answers the FreeIndex
// problem by probing with the virtual root (HeadId 0) and the BoundIndex
// problem by probing with a known node id, which is what enables
// index-nested-loop join plans.
type Paths struct {
	tree   *btree.Tree
	dict   *pathdict.Dict
	ptab   *pathdict.PathTable
	opts   PathsOptions
	headed bool
}

// BuildPaths constructs ROOTPATHS or, headed, DATAPATHS from the site's
// store. Labels are interned into the site's dictionary; when it has a
// path table every distinct schema path indexed is registered there (the
// registry SchemaPathId compression draws its ids from).
func BuildPaths(headed bool, s Site) (*Paths, error) {
	k := KindRootPaths
	if headed {
		k = KindDataPaths
	}
	built, err := Build(k, s)
	if err != nil {
		return nil, err
	}
	return built.(*Paths), nil
}

// preparePaths emits, encodes and sorts the rows of ROOTPATHS or, headed,
// DATAPATHS. The schema paths the rows carry are registered in a table of
// the prepare's own, in first-appearance order, and the load interns them
// into the site's table in that order — as the rows would have been,
// one by one. Under PathIDKeys the keys need the ids themselves: the
// prepare interns into the site's table as it goes (BuildKinds runs such
// prepares one after another).
func preparePaths(headed bool, s Site) (load, error) {
	if s.Opts.PathIDKeys && s.Ptab == nil {
		return nil, fmt.Errorf("index: PathIDKeys requires a PathTable")
	}
	p := newPaths(headed, nil, s)
	reg := s.Ptab // where the rows' paths are registered
	var fresh *pathdict.PathTable
	if reg != nil && !s.Opts.PathIDKeys {
		fresh = pathdict.NewPathTable()
		reg = fresh
	}
	entries := make([]btree.Entry, 0, pathrel.Count(s.Store, headed))
	var ar arena
	var rev pathdict.Path
	var key, val []byte
	pathrel.Emit(s.Store, s.Dict, nil, headed, func(r pathrel.Row) {
		if p.keep(r) {
			key = p.appendRowKey(key[:0], r, &rev, reg)
			val = appendIDs(val[:0], r.IDs, p.opts.RawIDs)
			entries = append(entries, btree.Entry{Key: ar.copy(key), Val: ar.copy(val)})
		}
	})
	// The rows of one key come in document order, which is IdList order
	// unless ids were committed out of order under one parent (two
	// transactions' reserved ranges): a key's run is sorted by IdList.
	// Entries equal in key and IdList are equal bytes, so the sort need
	// not be stable.
	order := p.idOrder()
	slices.SortFunc(entries, func(a, b btree.Entry) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return order(a.Val, b.Val)
	})
	return func(ld *loader) (any, error) {
		if fresh != nil {
			fresh.All(func(_ pathdict.PathID, path pathdict.Path) { s.Ptab.Intern(path) })
		}
		// Named through fmt: a direct Kind.String call would close an
		// initialization cycle with the family table, which names
		// preparePaths.
		var err error
		if p.tree, err = ld.bulk(fmt.Sprint(p.Kind()), entries); err != nil {
			return nil, err
		}
		p.tree.SetValueOrder(order)
		return p, nil
	}, nil
}

// idOrder is the value order of the index's key runs: IdLists compared
// numerically and lexicographically. Raw lists are big-endian, so their
// bytes already sort so.
func (p *Paths) idOrder() func(a, b []byte) int {
	if p.opts.RawIDs {
		return bytes.Compare
	}
	return idlist.Compare
}

// newPaths wires a handle at a site. HeadId pruning needs a head column:
// ROOTPATHS drops the predicate.
func newPaths(headed bool, tree *btree.Tree, s Site) *Paths {
	if !headed {
		s.Opts.KeepHead = nil
	}
	return &Paths{tree: tree, dict: s.Dict, ptab: s.Ptab, opts: s.Opts, headed: headed}
}

// PrunesHeads reports whether the index was built with HeadId pruning:
// then rows headed at data nodes may be missing, and only probes at the
// virtual root (HeadId 0) are complete.
func (p *Paths) PrunesHeads() bool { return p.opts.KeepHead != nil }

// keep applies the HeadId pruning option to a row.
func (p *Paths) keep(r pathrel.Row) bool {
	return p.opts.KeepHead == nil || r.HeadID == 0 || p.opts.KeepHead(r.HeadID)
}

// appendRowKey appends the index key of one 4-ary row under the build
// options to dst, registering the row's path in reg when reg is not nil;
// under PathIDKeys the key holds the path's id in reg. rev is the caller's
// reversal buffer.
func (p *Paths) appendRowKey(dst []byte, r pathrel.Row, rev *pathdict.Path, reg *pathdict.PathTable) []byte {
	if p.opts.PathIDKeys {
		return appendPathID(p.fixedColumns(dst, r.HeadID, r.HasValue, r.Value), reg.Intern(r.Path))
	}
	if reg != nil {
		reg.Intern(r.Path)
	}
	*rev = reverseInto((*rev)[:0], r.Path)
	return pathdict.PathsKey(dst, p.headed, r.HeadID, r.HasValue, r.Value, *rev)
}

// fixedColumns appends the key columns ahead of the schema path.
func (p *Paths) fixedColumns(dst []byte, headID int64, hasValue bool, value string) []byte {
	return pathdict.PathsKey(dst, p.headed, headID, hasValue, value, nil)
}

// checkHead rejects a bound probe of the shape that has no head column.
func (p *Paths) checkHead(headID int64) error {
	if !p.headed && headID != 0 {
		return fmt.Errorf("index: ROOTPATHS has no HeadId column to probe by (head %d)", headID)
	}
	return nil
}

// Probe scans all rows headed at headID whose LeafValue equals (hasValue,
// value) and whose schema path *ends with* the given (forward) path suffix,
// calling fn with the concrete forward path and full IdList of each row.
// headID 0 is the FreeIndex lookup — the only one ROOTPATHS has; a node id
// is DATAPATHS' BoundIndex lookup, whose paths start at the head and whose
// IdLists exclude it. fn's arguments are reused across calls; copy to
// retain. Every buffer — probe prefix, decoded path, id list, tree
// iterator — is drawn from sc, so repeated probes through one Scratch (in
// particular the per-head-id streams of an index-nested-loop join) run
// without allocating. Returns the number of rows visited.
func (p *Paths) Probe(sc *Scratch, headID int64, hasValue bool, value string, suffix pathdict.Path, fn func(fwd pathdict.Path, ids []int64) error) (int, error) {
	if p.opts.PathIDKeys {
		return 0, fmt.Errorf("index: %v built with PathIDKeys cannot answer suffix probes (lossy compression, Section 4.2)", p.Kind())
	}
	if err := p.checkHead(headID); err != nil {
		return 0, err
	}
	sc.rev = reverseInto(sc.rev[:0], suffix)
	sc.Prefix = p.fixedColumns(sc.Prefix[:0], headID, hasValue, value)
	// Every row of the scan starts with the probe's fixed columns, the
	// whole self-delimiting value field included: its path starts here.
	pathAt := len(sc.Prefix)
	sc.Prefix = pathdict.AppendPath(sc.Prefix, sc.rev)
	return p.tree.ScanPrefix(&sc.PrefixScan, func(key, val []byte) error {
		var err error
		if sc.fwd, err = pathdict.AppendPathReversed(sc.fwd[:0], key[pathAt:]); err != nil {
			return corrupt(err)
		}
		if sc.ids, err = decodeIDs(sc.ids[:0], val, p.opts.RawIDs); err != nil {
			return corrupt(err)
		}
		return fn(sc.fwd, sc.ids)
	})
}

// ProbePathID is the exact-path lookup available under SchemaPathId
// compression: only a fully specified path (no //) — rooted for headID 0,
// starting at the head otherwise — can be answered. fn receives path
// itself and each row's IdList, as Probe's would.
func (p *Paths) ProbePathID(sc *Scratch, headID int64, hasValue bool, value string, path pathdict.Path, fn func(fwd pathdict.Path, ids []int64) error) (int, error) {
	if !p.opts.PathIDKeys {
		return 0, fmt.Errorf("index: ProbePathID requires a PathIDKeys build")
	}
	if err := p.checkHead(headID); err != nil {
		return 0, err
	}
	id, ok := p.ptab.Lookup(path)
	if !ok {
		return 0, nil // path does not occur in the data
	}
	sc.Prefix = appendPathID(p.fixedColumns(sc.Prefix[:0], headID, hasValue, value), id)
	return p.tree.ScanPrefix(&sc.PrefixScan, func(_, val []byte) error {
		var err error
		if sc.ids, err = decodeIDs(sc.ids[:0], val, p.opts.RawIDs); err != nil {
			return corrupt(err)
		}
		return fn(path, sc.ids)
	})
}

// PathIDKeys reports whether the index was built under SchemaPathId
// compression, i.e. answers ProbePathID and not Probe.
func (p *Paths) PathIDKeys() bool { return p.opts.PathIDKeys }

func (p *Paths) Kind() Kind {
	if p.headed {
		return KindDataPaths
	}
	return KindRootPaths
}

// Space reports the index footprint.
func (p *Paths) Space() Space { return treeSpace(p.Kind(), p.tree) }

func (p *Paths) WalkPages(fn func(storage.PageID) error) error { return p.tree.Walk(fn) }

// AppendRecord writes the ROOTPATHS / DATAPATHS record: [1B flags: 1
// RawIDs, 2 PathIDKeys] tree. The path table is the shared one.
func (p *Paths) AppendRecord(w *CatWriter) {
	w.pathsOptions(p.opts)
	w.Tree(p.tree)
}

// openPaths reads the record back. A persisted index is never pruned (the
// engine refuses to write a pruned one), so the site's KeepHead is not
// applied.
func openPaths(headed bool, r *CatReader, s Site) Structure {
	s.Opts = r.pathsOptions()
	p := newPaths(headed, r.tree(s.Pool), s)
	p.tree.SetValueOrder(p.idOrder())
	return p
}

// Tree exposes the underlying B+-tree for white-box tests.
func (p *Paths) Tree() *btree.Tree { return p.tree }

// Incremental maintenance under subtree insertion and deletion — the
// paper's Section 7 direction ("inserting an author with a certain name to
// an existing book requires inserting all prefixes of the
// /book/author/name path"). A subtree update touches one index entry per
// (chain ending in the subtree, value row), exactly the rows pathrel.Emit
// enumerates for the subtree.

// CloneCOW returns a writable handle on the index whose mutations
// copy-on-write every B+-tree page below frontier, leaving this handle's
// view intact — the index half of the engine's snapshot isolation: the
// published snapshot keeps reading the frozen tree while the writer
// maintains the clone (see btree.Tree.CloneCOW). The dictionary and path
// table are shared: both are append-only and internally latched, so old
// snapshots are unaffected by new interning.
func (p *Paths) CloneCOW(frontier storage.PageID) Maintained {
	c := *p
	c.tree = p.tree.CloneCOW(frontier)
	return &c
}

// TakeRetired drains the tree pages this clone stopped referencing (see
// btree.Tree.TakeRetired); the engine frees them once the snapshots that
// can still read them have been released.
func (p *Paths) TakeRetired() []storage.PageID { return p.tree.TakeRetired() }

// TakeFresh drains the pages this clone allocated since CloneCOW (see
// btree.Tree.TakeFresh); the engine frees them when a transaction's
// prepared version is abandoned — rolled back, or replaced by a replay
// onto a newer base.
func (p *Paths) TakeFresh() []storage.PageID { return p.tree.TakeFresh() }

// Copies returns the number of shared pages this clone has copied on
// write (see btree.Tree.Copies).
func (p *Paths) Copies() int { return p.tree.Copies() }

// InsertSubtree adds the index rows for a subtree newly attached to the
// store (ids already assigned via Store.AttachSubtree): for DATAPATHS one
// row per (head, chain-end) pair with the chain end inside the subtree.
func (p *Paths) InsertSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	return p.maintain(store, sub, func(key, val []byte) (bool, error) { return true, p.tree.Insert(key, val) })
}

// DeleteSubtree removes the index rows of a subtree. Call before (or after)
// Store.DetachSubtree, while the subtree is still connected to its
// ancestors so root paths can be reconstructed.
func (p *Paths) DeleteSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	return p.maintain(store, sub, p.tree.Delete)
}

// maintain applies op to the entry of every kept row of the subtree,
// stopping at the first error; op reports whether the entry was there to
// act on.
func (p *Paths) maintain(store *xmldb.Store, sub *xmldb.Node, op func(key, val []byte) (bool, error)) error {
	var rev pathdict.Path
	var err error
	missing := 0
	pathrel.Emit(store, p.dict, sub, p.headed, func(r pathrel.Row) {
		if err != nil || !p.keep(r) {
			return
		}
		var ok bool
		if ok, err = op(p.appendRowKey(nil, r, &rev, p.ptab), appendIDs(nil, r.IDs, p.opts.RawIDs)); err == nil && !ok {
			missing++
		}
	})
	if err == nil && missing > 0 {
		return fmt.Errorf("index: %v delete: %d rows were not present", p.Kind(), missing)
	}
	return err
}

func appendIDs(dst []byte, ids []int64, raw bool) []byte {
	if raw {
		return idlist.EncodeRaw(dst, ids)
	}
	return idlist.EncodeDelta(dst, ids)
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
