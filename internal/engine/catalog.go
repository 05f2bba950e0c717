package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// The engine catalog is the durable root of everything above the page
// device: the XML store (documents with their node ids and the id
// counter), the shared designator dictionary and path table, and one
// record per built index structure (B+-tree roots plus the small
// in-memory registries). It is serialised at every commit boundary into a
// chain of ordinary pages — [4B next page id][2B payload length][payload]
// — whose head the commit record carries as CatalogRoot, so the catalog is
// covered by exactly the same WAL/commit/checkpoint discipline as the
// index pages it describes.
//
// Catalog layout (all integers varint/uvarint unless noted):
//
//	magic "TWIGCAT1", version
//	store:   nextID, #docs, then each document tree in pre-order
//	         (id, label, hasValue[, value], #children, children...)
//	dict:    #labels, labels in symbol order
//	ptab:    #paths, each path as #syms + syms
//	present: u8 bitmask, bit 1<<k set when the structure of index.Kind k
//	         is built (fixed by the file format: kinds are never reordered)
//	per present structure, in kind order: its record
//
// The engine frames the records; what is inside one is its structure's
// business (Structure.AppendRecord and the family table's open function in
// internal/index, over the field primitives of index.CatWriter/CatReader).

const (
	catalogMagic   = "TWIGCAT1"
	catalogVersion = 1

	// catalogPageHeader is [4B next][2B length] at the head of each page.
	catalogPageHeader = 6
	catalogPageCap    = storage.PageSize - catalogPageHeader
)

var errCatalogVersion = errors.New("engine: unsupported catalog version")

func writeNode(w *index.CatWriter, n *xmldb.Node) {
	w.Uvarint(uint64(n.ID))
	w.Str(n.Label)
	w.Bool(n.HasValue)
	if n.HasValue {
		w.Str(n.Value)
	}
	w.Uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		writeNode(w, c)
	}
}

// encodeCatalog serialises a snapshot's durable state. Callers hold the
// writer lock (the snapshot itself is immutable; the lock orders catalog
// page-chain reuse).
func encodeCatalog(s *Snapshot) []byte {
	w := &index.CatWriter{Buf: make([]byte, 0, 4096)}
	w.Buf = append(w.Buf, catalogMagic...)
	w.Uvarint(catalogVersion)

	// Store.
	w.Uvarint(uint64(s.store.NextID()))
	w.Uvarint(uint64(len(s.store.Docs)))
	for _, d := range s.store.Docs {
		writeNode(w, d.Root)
	}

	// Dictionary: labels in symbol order, so re-interning reproduces syms.
	n := s.dict.Size()
	w.Uvarint(uint64(n))
	for sym := 1; sym <= n; sym++ {
		w.Str(s.dict.Label(pathdict.Sym(sym)))
	}

	w.PathTable(s.ptab)

	built := s.env.Structures()
	var mask byte
	for _, st := range built {
		mask |= 1 << st.Kind()
	}
	w.U8(mask)
	for _, st := range built {
		st.AppendRecord(w)
	}
	return w.Buf
}

func readNode(r *index.CatReader, depth int) *xmldb.Node {
	if depth > 100000 {
		r.Fail("node nesting too deep")
		return nil
	}
	n := &xmldb.Node{ID: int64(r.Uvarint()), Label: r.Str()}
	if r.Bool() {
		n.HasValue = true
		n.Value = r.Str()
	}
	kids := r.Uvarint()
	if r.Err() != nil || kids > r.Len() {
		r.Fail("bad child count %d", kids)
		return n
	}
	for i := uint64(0); i < kids; i++ {
		c := readNode(r, depth+1)
		if r.Err() != nil {
			return n
		}
		n.Children = append(n.Children, c)
	}
	return n
}

// decodeCatalog restores the engine's durable state from blob into the
// initial snapshot (and the DB's shared dictionary/path table). Called
// during Open, before the DB is shared. A blob it cannot decode fails with
// an error matching index.ErrCorruptCatalog or errCatalogVersion.
func decodeCatalog(db *DB, snap *Snapshot, blob []byte) error {
	if len(blob) < len(catalogMagic) || string(blob[:len(catalogMagic)]) != catalogMagic {
		return fmt.Errorf("%w: bad magic", index.ErrCorruptCatalog)
	}
	r := index.NewCatReader(blob[len(catalogMagic):])
	if v := r.Uvarint(); r.Err() == nil && v != catalogVersion {
		return fmt.Errorf("%w %d", errCatalogVersion, v)
	}

	// Store.
	nextID := int64(r.Uvarint())
	nDocs := r.Uvarint()
	if nDocs > r.Len() {
		r.Fail("bad document count")
	}
	store := xmldb.NewStore()
	for i := uint64(0); i < nDocs && r.Err() == nil; i++ {
		if root := readNode(r, 0); r.Err() == nil {
			if err := store.RestoreDocument(&xmldb.Document{Root: root}); err != nil {
				r.Fail("%v", err)
			}
		}
	}
	store.SetNextID(nextID)

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
	mask := uint(r.U8())
	if r.Err() != nil {
		return r.Err()
	}

	db.dict = dict
	db.ptab = ptab
	snap.store = store
	snap.dict = dict
	snap.ptab = ptab
	snap.env.Store = store
	snap.env.Dict = dict

	site := index.Site{Pool: db.pool, Dict: dict, Ptab: ptab, Opts: db.cfg.PathsOptions}
	for _, k := range index.PersistedKinds() {
		if mask&(1<<k) == 0 {
			continue
		}
		st := index.Open(k, r, site)
		if r.Err() != nil {
			return r.Err()
		}
		snap.env.Install(k, st)
	}
	return nil
}

// ------------------------------------------------------------- page chain

// catalogChainLen is the number of pages blob's chain takes (at least one).
func catalogChainLen(blob []byte) int {
	return max(1, (len(blob)+catalogPageCap-1)/catalogPageCap)
}

// layCatalogChain lays blob out over the pages ids (catalogChainLen of
// them), each [4B next page id][2B payload length][payload], handing every
// page image to write. The live commit path and online backup both write
// the catalog through it.
func layCatalogChain(blob []byte, ids []storage.PageID, write func(storage.PageID, []byte) error) error {
	buf := make([]byte, storage.PageSize)
	for i, id := range ids {
		next := storage.InvalidPage
		if i+1 < len(ids) {
			next = ids[i+1]
		}
		lo := i * catalogPageCap
		hi := min(lo+catalogPageCap, len(blob))
		clear(buf)
		binary.BigEndian.PutUint32(buf[0:4], uint32(next))
		binary.BigEndian.PutUint16(buf[4:6], uint16(hi-lo))
		copy(buf[catalogPageHeader:], blob[lo:hi])
		if err := write(id, buf); err != nil {
			return fmt.Errorf("engine: writing catalog page: %w", err)
		}
	}
	return nil
}

// writeCatalogChain writes blob across a chain of pages, reusing the ids
// in reuse (the previous catalog's pages — safe because every overwrite is
// a WAL frame that only supersedes the old image at the next commit) and
// allocating more from dev as needed. It returns the chain head and the
// full page set to reuse next time.
func writeCatalogChain(dev storage.Device, reuse []storage.PageID, blob []byte) (storage.PageID, []storage.PageID, error) {
	n := catalogChainLen(blob)
	if n > len(reuse) {
		grow := n - len(reuse)
		first := dev.AllocateN(grow)
		for i := 0; i < grow; i++ {
			reuse = append(reuse, first+storage.PageID(i))
		}
	} else if n < len(reuse) {
		// The catalog shrank: return the excess chain pages to the device
		// free list. Immediate (not deferred like tree pages) because
		// catalog pages are only ever read at Open, never by snapshots at
		// runtime, and the free rides the same commit as the new chain. A
		// refused free just leaves the page allocated.
		for _, id := range reuse[n:] {
			_ = dev.Free(id)
		}
		reuse = reuse[:n]
	}
	if err := layCatalogChain(blob, reuse, dev.Write); err != nil {
		return storage.InvalidPage, reuse, err
	}
	return reuse[0], reuse, nil
}

// readCatalogChain reads the catalog blob starting at root and returns it
// with the chain's page ids (kept for reuse by the next commit).
func readCatalogChain(dev storage.Device, root storage.PageID) ([]byte, []storage.PageID, error) {
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
