package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/storage"
)

// The engine catalog is the durable root of everything above the page
// device: the id counter, the shared designator dictionary and path table,
// the node table's B+-tree Meta (the documents themselves live in that
// tree, see index.NodeTable), and one record per built index structure (B+-tree
// roots plus the small in-memory registries). It is serialised at every
// sync point into a chain of ordinary pages — [4B next page id][2B
// payload length][payload] — whose head the superblock carries as
// CatalogRoot, so the catalog is copied on write and sealed exactly like
// the index pages it describes. With
// the documents out of it the catalog is a few KB whatever the database
// size, usually one page.
//
// Catalog layout, version 6 (all integers varint/uvarint unless noted):
//
//	magic "TWIGCAT1", version
//	nextID
//	dict:    #labels, labels in symbol order
//	ptab:    #paths, each path as #syms + syms
//	nodes:   the node table's Meta (name, root, height, pages, entries)
//	present: bitmask, bit 1<<k set when the structure of index.Kind k is
//	         built (fixed by the file format: kinds are never reordered)
//	per present structure, in kind order: its record
//
// Open reads version 6 only; any other fails with storage.ErrFormatVersion.
// Version 6 has version 3's layout. It marks files whose B+-tree
// separators carry the right side's first value wherever a cut lands
// inside a run of duplicate keys, which btree.Tree.Insert and Delete
// descend by; a version-5 file can hold key-only separators inside a run,
// where that descent misses rows. Version 5 marked files whose ROOTPATHS
// and DATAPATHS keep every run of duplicate keys in IdList order; a
// maintained version-4 file kept its runs newest first. Version 4 marked files
// that cannot hold a DATAPATHS built with HeadId pruning
// (index.PathsOptions.KeepHead): the pruning was not recorded, so a pruned
// version-3 index cannot be told from a complete one and answered bound
// probes wrongly after a reopen; Build refuses to prune a file-backed index
// (ErrPrunedNotPersistable).
//
// The engine frames the records; what is inside one is its structure's
// business (Structure.AppendRecord and the family table's open function in
// internal/index, over the field primitives of index.CatWriter/CatReader).

const (
	catalogMagic   = "TWIGCAT1"
	catalogVersion = 6

	// catalogPageHeader is [4B next][2B length] at the head of each page.
	catalogPageHeader = 6
	catalogPageCap    = storage.PageSize - catalogPageHeader
)

// presentMask is the present bitmask of the built structures.
func presentMask(built []index.Structure) uint64 {
	var mask uint64
	for _, st := range built {
		mask |= 1 << st.Kind()
	}
	return mask
}

// encodeCatalog serialises a snapshot's durable state, with db's
// dictionary and path table; the snapshot must carry its node table.
// Callers hold the writer lock (the snapshot itself is immutable; the lock
// orders catalog page-chain reuse).
func encodeCatalog(db *DB, s *Snapshot) []byte {
	w := &index.CatWriter{Buf: make([]byte, 0, 4096)}
	w.Buf = append(w.Buf, catalogMagic...)
	w.Uvarint(catalogVersion)
	w.Uvarint(uint64(s.nextID))

	// Dictionary: labels in symbol order, so re-interning reproduces syms.
	n := db.dict.Size()
	w.Uvarint(uint64(n))
	for sym := 1; sym <= n; sym++ {
		w.Str(db.dict.Label(pathdict.Sym(sym)))
	}

	w.PathTable(db.ptab)
	w.Tree(s.env.Nodes.Tree())

	built := s.env.Structures()
	w.Uvarint(presentMask(built))
	for _, st := range built {
		st.AppendRecord(w)
	}
	return w.Buf
}

// decodeCatalog restores the engine's durable state from blob into the
// initial snapshot (and the DB's shared dictionary/path table). The
// documents stay in the node table on db's device: the snapshot gets the
// statistics read from it (readNodeStats), and its store is loaded on
// first need. Called during Open, before the DB is shared. A blob it
// cannot decode fails with an error matching index.ErrCorruptCatalog, or
// storage.ErrFormatVersion for a version other than catalogVersion, as
// does a node table readNodeStats rejects.
func decodeCatalog(db *DB, snap *Snapshot, blob []byte) error {
	if len(blob) < len(catalogMagic) || string(blob[:len(catalogMagic)]) != catalogMagic {
		return fmt.Errorf("%w: bad magic", index.ErrCorruptCatalog)
	}
	r := index.NewCatReader(blob[len(catalogMagic):])
	if version := r.Uvarint(); r.Err() == nil && version != catalogVersion {
		return fmt.Errorf("%w: catalog version %d (this build reads version %d only)", storage.ErrFormatVersion, version, catalogVersion)
	}
	nextID := int64(r.Uvarint())

	// Dictionary.
	dict := pathdict.NewDict()
	nLabels := r.Uvarint()
	if nLabels > r.Len()+1 {
		r.Fail("bad label count")
	}
	for i := uint64(0); i < nLabels && r.Err() == nil; i++ {
		dict.Intern(r.Str())
	}

	ptab := r.PathTable()
	nodes := r.TreeMeta()
	mask := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	st, last, err := readNodeStats(db.fdisk, nodes, dict)
	if err != nil {
		return err
	}
	if nextID <= last {
		return fmt.Errorf("%w: id counter %d below node %d", index.ErrCorruptCatalog, nextID, last)
	}
	snap.env.Nodes = index.OpenNodeTable(db.pool, nodes, dict)
	snap.env.Stats = st

	db.dict = dict
	db.ptab = ptab
	snap.nextID = nextID
	snap.env.Dict = dict

	site := index.Site{Pool: db.pool, Dict: dict, Ptab: ptab, Opts: db.cfg.PathsOptions}
	for _, k := range index.PersistedKinds() {
		if mask&(1<<k) == 0 {
			continue
		}
		mask &^= 1 << k
		st := index.Open(k, r, site)
		if r.Err() != nil {
			return r.Err()
		}
		snap.env.Install(k, st)
	}
	if mask != 0 {
		return fmt.Errorf("%w: present mask names unknown structures %#x", index.ErrCorruptCatalog, mask)
	}
	return nil
}

// ------------------------------------------------------------- page chain

// catalogChainLen is the number of pages blob's chain takes (at least one).
func catalogChainLen(blob []byte) int {
	return max(1, (len(blob)+catalogPageCap-1)/catalogPageCap)
}

// writeCatalogChain writes blob across a chain of fresh pages from dev —
// free list first — each [4B next page id][2B payload length][payload],
// and returns them, head first. A sync point and an online backup both
// write their catalog through it. The pages are ones the sealed state does
// not reach, so the chain it replaces stays intact until the seal that
// names the new one. A failed write frees what it allocated.
func writeCatalogChain(dev *storage.FileDisk, blob []byte) ([]storage.PageID, error) {
	pages := make([]storage.PageID, catalogChainLen(blob))
	for i := range pages {
		// An exhausted id space yields InvalidPage, which the write refuses.
		pages[i] = dev.Allocate()
	}
	buf := make([]byte, storage.PageSize)
	for i, id := range pages {
		next := storage.InvalidPage
		if i+1 < len(pages) {
			next = pages[i+1]
		}
		lo := i * catalogPageCap
		hi := min(lo+catalogPageCap, len(blob))
		clear(buf)
		binary.BigEndian.PutUint32(buf[0:4], uint32(next))
		binary.BigEndian.PutUint16(buf[4:6], uint16(hi-lo))
		copy(buf[catalogPageHeader:], blob[lo:hi])
		if err := dev.Write(id, buf); err != nil {
			for _, id := range pages {
				_ = dev.Free(id)
			}
			return nil, fmt.Errorf("engine: writing catalog page: %w", err)
		}
	}
	return pages, nil
}

// readCatalogChain reads the catalog blob starting at root and returns it
// with the chain's page ids (freed once a sync point writes the next chain).
func readCatalogChain(dev *storage.FileDisk, root storage.PageID) ([]byte, []storage.PageID, error) {
	var blob []byte
	var pages []storage.PageID
	buf := make([]byte, storage.PageSize)
	for id := root; id != storage.InvalidPage; {
		if len(pages) > dev.NumPages() {
			return nil, nil, fmt.Errorf("engine: catalog page chain cycle at %d", id)
		}
		if err := dev.Read(id, buf); err != nil {
			return nil, nil, fmt.Errorf("engine: reading catalog page %d: %w", id, err)
		}
		pages = append(pages, id)
		next := storage.PageID(int32(binary.BigEndian.Uint32(buf[0:4])))
		n := int(binary.BigEndian.Uint16(buf[4:6]))
		if n > catalogPageCap {
			return nil, nil, fmt.Errorf("engine: catalog page %d has bad length %d", id, n)
		}
		blob = append(blob, buf[catalogPageHeader:catalogPageHeader+n]...)
		id = next
	}
	return blob, pages, nil
}
