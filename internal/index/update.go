package index

import (
	"fmt"

	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// Incremental maintenance of ROOTPATHS and DATAPATHS under subtree
// insertion and deletion — the paper's Section 7 direction ("inserting an
// author with a certain name to an existing book requires inserting all
// prefixes of the /book/author/name path"). A subtree update touches one
// index entry per (chain ending in the subtree, value row), exactly the
// rows pathrel.EmitSubtreeRows enumerates.

// CloneCOW returns a writable handle on the index whose mutations
// copy-on-write every B+-tree page below frontier, leaving this handle's
// view intact — the index half of the engine's snapshot isolation: the
// published snapshot keeps reading the frozen tree while the writer
// maintains the clone (see btree.Tree.CloneCOW). The dictionary and path
// table are shared: both are append-only and internally latched, so old
// snapshots are unaffected by new interning.
func (rp *RootPaths) CloneCOW(frontier storage.PageID) Maintained {
	return &RootPaths{tree: rp.tree.CloneCOW(frontier), dict: rp.dict, ptab: rp.ptab, opts: rp.opts}
}

// CloneCOW is RootPaths.CloneCOW for DATAPATHS.
func (dp *DataPaths) CloneCOW(frontier storage.PageID) Maintained {
	return &DataPaths{tree: dp.tree.CloneCOW(frontier), dict: dp.dict, ptab: dp.ptab, opts: dp.opts}
}

// TakeRetired drains the tree pages this clone stopped referencing (see
// btree.Tree.TakeRetired); the engine frees them once the snapshots that
// can still read them have been released.
func (rp *RootPaths) TakeRetired() []storage.PageID { return rp.tree.TakeRetired() }

// TakeRetired is RootPaths.TakeRetired for DATAPATHS.
func (dp *DataPaths) TakeRetired() []storage.PageID { return dp.tree.TakeRetired() }

// TakeFresh drains the pages this clone allocated since CloneCOW (see
// btree.Tree.TakeFresh); the engine frees them when a transaction's
// prepared version is abandoned — rolled back, or replaced by a replay
// onto a newer base.
func (rp *RootPaths) TakeFresh() []storage.PageID { return rp.tree.TakeFresh() }

// TakeFresh is RootPaths.TakeFresh for DATAPATHS.
func (dp *DataPaths) TakeFresh() []storage.PageID { return dp.tree.TakeFresh() }

// rowKey builds the index key for one 4-ary row under the build options.
func (rp *RootPaths) rowKey(r pathrel.Row, rev *pathdict.Path) []byte {
	if rp.opts.PathIDKeys {
		id := rp.ptab.Intern(r.Path)
		key := pathdict.AppendValueField(nil, r.HasValue, r.Value)
		return appendPathID(key, id)
	}
	if rp.ptab != nil {
		rp.ptab.Intern(r.Path)
	}
	*rev = reverseInto((*rev)[:0], r.Path)
	return pathdict.RootPathsKey(nil, r.HasValue, r.Value, *rev)
}

// InsertSubtree adds the index rows for a subtree newly attached to the
// store (ids already assigned via Store.AttachSubtree).
func (rp *RootPaths) InsertSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	var rev pathdict.Path
	var err error
	pathrel.EmitSubtreeRows(store, rp.dict, sub, false, func(r pathrel.Row) {
		if err != nil {
			return
		}
		key := rp.rowKey(r, &rev)
		err = rp.tree.Insert(key, encodeIDs(r.IDs, rp.opts.RawIDs))
	})
	return err
}

// DeleteSubtree removes the index rows of a subtree. Call before (or after)
// Store.DetachSubtree, while the subtree is still connected to its
// ancestors so root paths can be reconstructed.
func (rp *RootPaths) DeleteSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	var rev pathdict.Path
	var err error
	missing := 0
	pathrel.EmitSubtreeRows(store, rp.dict, sub, false, func(r pathrel.Row) {
		if err != nil {
			return
		}
		key := rp.rowKey(r, &rev)
		var ok bool
		ok, err = rp.tree.Delete(key, encodeIDs(r.IDs, rp.opts.RawIDs))
		if err == nil && !ok {
			missing++
		}
	})
	if err == nil && missing > 0 {
		return fmt.Errorf("index: ROOTPATHS delete: %d rows were not present", missing)
	}
	return err
}

func (dp *DataPaths) rowKey(r pathrel.Row, rev *pathdict.Path) []byte {
	if dp.opts.PathIDKeys {
		id := dp.ptab.Intern(r.Path)
		key := pathdict.AppendID(nil, r.HeadID)
		key = pathdict.AppendValueField(key, r.HasValue, r.Value)
		return appendPathID(key, id)
	}
	if dp.ptab != nil {
		dp.ptab.Intern(r.Path)
	}
	*rev = reverseInto((*rev)[:0], r.Path)
	return pathdict.DataPathsKey(nil, r.HeadID, r.HasValue, r.Value, *rev)
}

// keepRow applies the HeadId pruning option to an update row.
func (dp *DataPaths) keepRow(r pathrel.Row) bool {
	return dp.opts.KeepHead == nil || r.HeadID == 0 || dp.opts.KeepHead(r.HeadID)
}

// InsertSubtree adds the DATAPATHS rows for a newly attached subtree: one
// row per (head, chain-end) pair with the chain end inside the subtree.
func (dp *DataPaths) InsertSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	var rev pathdict.Path
	var err error
	pathrel.EmitSubtreeRows(store, dp.dict, sub, true, func(r pathrel.Row) {
		if err != nil || !dp.keepRow(r) {
			return
		}
		key := dp.rowKey(r, &rev)
		err = dp.tree.Insert(key, encodeIDs(r.IDs, dp.opts.RawIDs))
	})
	return err
}

// DeleteSubtree removes the DATAPATHS rows of a subtree; call while the
// subtree is still connected (see RootPaths.DeleteSubtree).
func (dp *DataPaths) DeleteSubtree(store *xmldb.Store, sub *xmldb.Node) error {
	var rev pathdict.Path
	var err error
	missing := 0
	pathrel.EmitSubtreeRows(store, dp.dict, sub, true, func(r pathrel.Row) {
		if err != nil || !dp.keepRow(r) {
			return
		}
		key := dp.rowKey(r, &rev)
		var ok bool
		ok, err = dp.tree.Delete(key, encodeIDs(r.IDs, dp.opts.RawIDs))
		if err == nil && !ok {
			missing++
		}
	})
	if err == nil && missing > 0 {
		return fmt.Errorf("index: DATAPATHS delete: %d rows were not present", missing)
	}
	return err
}
