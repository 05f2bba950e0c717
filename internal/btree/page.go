// Package btree implements a disk-backed B+-tree over variable-length byte
// keys and values, the access method behind every index in the family. The
// paper's indices are "regular B+-tree indices" in DB2; two properties it
// relies on are reproduced here:
//
//   - per-page common-prefix compression of keys ("many commercial systems
//     such as DB2 implement prefix compression on indexed columns to reduce
//     the key size", Section 3.1), and
//   - efficient prefix-range scans, the primitive that makes reverse schema
//     paths answer PCsubpath queries with a leading //.
//
// Duplicate keys are permitted. Entries sort by key and, within one key's
// duplicate run, by a value order the tree's owner sets (Tree.SetValueOrder),
// so Insert and Delete find a (key, value) pair by binary search however
// long its run. Internal cells carry keys only. Leaves are chained for range
// scans.
package btree

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

const (
	pageLeaf     = 1
	pageInternal = 2

	headerSize = 12
	// offType = 0; numCells at 1..2; prefixLen at 3..4; aux (next-leaf id
	// for leaves, leftmost-child id for internal nodes) at 5..8; heapStart
	// (lowest cell offset, 0 meaning "empty heap") at 9..10. Byte 11 is
	// reserved. Readers never consult heapStart, so pages stay readable by
	// iterator/scan code that predates it.

	// MaxEntrySize bounds key+value so that any entry fits comfortably in
	// a page even with minimal fanout.
	MaxEntrySize = storage.PageSize / 4
)

// entry is a decoded cell. Leaf entries use key/val; internal entries use
// key/child where child holds keys >= key.
type entry struct {
	key   []byte
	val   []byte
	child storage.PageID
}

// pageContent is a fully decoded page, the representation of splits and
// the bulk load.
type pageContent struct {
	leaf    bool
	aux     storage.PageID // next leaf, or leftmost child
	entries []entry
}

func u16(b []byte) int       { return int(b[0])<<8 | int(b[1]) }
func putU16(b []byte, v int) { b[0], b[1] = byte(v>>8), byte(v) }
func i32(b []byte) int32 {
	return int32(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}
func putI32(b []byte, v int32) {
	b[0], b[1], b[2], b[3] = byte(uint32(v)>>24), byte(uint32(v)>>16), byte(uint32(v)>>8), byte(uint32(v))
}

func pageType(d []byte) int           { return int(d[0]) }
func pageNumCells(d []byte) int       { return u16(d[1:3]) }
func pagePrefixLen(d []byte) int      { return u16(d[3:5]) }
func pageAux(d []byte) storage.PageID { return storage.PageID(i32(d[5:9])) }
func pagePrefix(d []byte) []byte      { return d[headerSize : headerSize+pagePrefixLen(d)] }
func slotBase(d []byte) int           { return headerSize + pagePrefixLen(d) }
func cellOffset(d []byte, i int) int  { return u16(d[slotBase(d)+2*i:]) }

// pageHeapStart returns the lowest cell offset: the floor of the cell heap,
// which grows downward from the end of the page. 0 encodes an empty heap.
func pageHeapStart(d []byte) int {
	if v := u16(d[9:11]); v != 0 {
		return v
	}
	return storage.PageSize
}

// pageFreeGap returns the contiguous free bytes between the end of the slot
// array and the heap floor — the space available to in-place inserts.
func pageFreeGap(d []byte) int {
	return pageHeapStart(d) - (slotBase(d) + 2*pageNumCells(d))
}

// leafCell returns the key suffix and value of leaf cell i.
func leafCell(d []byte, i int) (suffix, val []byte) {
	return leafCellAt(d, slotBase(d), i)
}

// leafCellAt is leafCell for a caller that has read the page's slot base
// once (see Tree.ScanPrefix). It indexes d directly, without u16, to stay
// within the compiler's inlining budget: it runs once per scanned row.
func leafCellAt(d []byte, slots, i int) (suffix, val []byte) {
	s := slots + 2*i
	off := int(d[s])<<8 | int(d[s+1])
	klen, vlen := int(d[off])<<8|int(d[off+1]), int(d[off+2])<<8|int(d[off+3])
	cell := d[off+4:]
	return cell[:klen], cell[klen : klen+vlen]
}

// internalCell returns the key suffix and child of internal cell i.
func internalCell(d []byte, i int) (suffix []byte, child storage.PageID) {
	off := cellOffset(d, i)
	klen := u16(d[off:])
	child = storage.PageID(i32(d[off+2:]))
	off += 6
	return d[off : off+klen], child
}

// searchCell returns the index of the first cell whose key is >= key,
// binary-searching the slot array directly on the encoded page. Every key
// on the page starts with the page prefix, so key is compared with the
// prefix once; the search then compares cell suffixes with the rest of key.
func searchCell(d []byte, key []byte) int {
	n := pageNumCells(d)
	prefix := pagePrefix(d)
	head := key
	if len(head) > len(prefix) {
		head = head[:len(prefix)]
	}
	switch c := bytes.Compare(prefix, head); {
	case c < 0:
		return n // every key on the page is below key
	case c > 0:
		return 0 // every key on the page is above key
	}
	rest := key[len(prefix):]
	slots := headerSize + len(prefix)
	hdr := 4 // leaf cell: key length, value length
	if pageType(d) != pageLeaf {
		hdr = 6 // internal cell: key length, child
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off := u16(d[slots+2*mid:])
		if bytes.Compare(d[off+hdr:off+hdr+u16(d[off:])], rest) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertLeafInPlace writes (key, val) as leaf cell pos without re-encoding
// the page: the cell is appended at the heap floor and the slot array is
// shifted by one. It reports false — leaving the page untouched — when the
// stored prefix does not cover key or the contiguous free gap is too small;
// the caller then falls back to insertCompacting, which compacts the heap
// and recomputes the prefix.
func insertLeafInPlace(d []byte, pos int, key, val []byte) bool {
	plen := pagePrefixLen(d)
	if len(key) < plen || !bytes.Equal(key[:plen], pagePrefix(d)) {
		return false
	}
	suffix := key[plen:]
	cellLen := 4 + len(suffix) + len(val)
	if cellLen+2 > pageFreeGap(d) {
		return false
	}
	heap := pageHeapStart(d) - cellLen
	putU16(d[heap:], len(suffix))
	putU16(d[heap+2:], len(val))
	copy(d[heap+4:], suffix)
	copy(d[heap+4+len(suffix):], val)
	insertSlot(d, pos, heap)
	return true
}

// insertInternalInPlace writes (key, child) as internal cell pos without
// re-encoding; same contract as insertLeafInPlace.
func insertInternalInPlace(d []byte, pos int, key []byte, child storage.PageID) bool {
	plen := pagePrefixLen(d)
	if len(key) < plen || !bytes.Equal(key[:plen], pagePrefix(d)) {
		return false
	}
	suffix := key[plen:]
	cellLen := 6 + len(suffix)
	if cellLen+2 > pageFreeGap(d) {
		return false
	}
	heap := pageHeapStart(d) - cellLen
	putU16(d[heap:], len(suffix))
	putI32(d[heap+2:], int32(child))
	copy(d[heap+6:], suffix)
	insertSlot(d, pos, heap)
	return true
}

// insertCompacting writes (key, val) — (key, child) on an internal page —
// as cell pos of page d by re-encoding d from its own slots into scratch
// (a page-sized buffer) and copying the result back, without decoding an
// entry: the image is the one encodePage makes of the decoded cells plus
// the new one, heap compacted, cells laid in key order and the page prefix
// recomputed from the first and last keys. It is the fallback of the
// in-place inserts when the stored prefix does not cover key or the heap
// holds garbage. It reports false, leaving d untouched, when the cells no
// longer fit one page: the caller then splits.
func insertCompacting(d, scratch []byte, pos int, key, val []byte, child storage.PageID) bool {
	n := pageNumCells(d)
	leaf := pageType(d) == pageLeaf
	hdr := 6 // internal cell: key length, child
	if leaf {
		hdr = 4 // leaf cell: key length, value length
	}
	old := pagePrefix(d)
	oldSlots := headerSize + len(old)
	cell := func(i int) (suffix, v []byte) {
		if leaf {
			return leafCellAt(d, oldSlots, i)
		}
		suffix, _ = internalCell(d, i)
		return suffix, nil
	}

	// Every key between the first and the last shares their common prefix.
	var plen int
	switch {
	case n == 0:
		plen = len(key)
	case pos == 0:
		last, _ := cell(n - 1)
		plen = splitKeyLCP(key, old, last)
	case pos == n:
		first, _ := cell(0)
		plen = splitKeyLCP(key, old, first)
	default:
		first, _ := cell(0)
		last, _ := cell(n - 1)
		plen = len(old) + lcp(first, last)
	}
	size := headerSize + plen + 2*(n+1) + hdr + len(key) - plen + len(val)
	for i := 0; i < n; i++ {
		suffix, v := cell(i)
		size += hdr + len(old) + len(suffix) - plen + len(v)
	}
	if size > storage.PageSize {
		return false
	}

	clear(scratch[:storage.PageSize])
	scratch[0] = d[0]
	putU16(scratch[1:3], n+1)
	putU16(scratch[3:5], plen)
	copy(scratch[5:9], d[5:9]) // aux
	if pos == 0 {
		copy(scratch[headerSize:], key[:plen])
	} else {
		first, _ := cell(0)
		copyJoined(scratch[headerSize:headerSize+plen], old, first)
	}
	slots, heap := headerSize+plen, storage.PageSize
	for j := 0; j <= n; j++ {
		var cellLen int
		if j == pos {
			suffix := key[plen:]
			cellLen = hdr + len(suffix) + len(val)
			heap -= cellLen
			putU16(scratch[heap:], len(suffix))
			copy(scratch[heap+hdr:], suffix)
			if leaf {
				putU16(scratch[heap+2:], len(val))
				copy(scratch[heap+hdr+len(suffix):], val)
			} else {
				putI32(scratch[heap+2:], int32(child))
			}
		} else {
			i := j
			if j > pos {
				i--
			}
			suffix, v := cell(i)
			klen := len(old) + len(suffix) - plen // the key's length past the new prefix
			cellLen = hdr + klen + len(v)
			heap -= cellLen
			putU16(scratch[heap:], klen)
			if plen < len(old) {
				copyJoined(scratch[heap+hdr:heap+hdr+klen], old[plen:], suffix)
			} else {
				copy(scratch[heap+hdr:], suffix[plen-len(old):])
			}
			if leaf {
				putU16(scratch[heap+2:], len(v))
				copy(scratch[heap+hdr+klen:], v)
			} else {
				off := cellOffset(d, i)
				copy(scratch[heap+2:heap+6], d[off+2:off+6]) // child
			}
		}
		putU16(scratch[slots+2*j:], heap)
	}
	putU16(scratch[9:11], heap)
	copy(d[:storage.PageSize], scratch)
	return true
}

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// splitKeyLCP returns the length of the longest common prefix of key and
// the key stored as page prefix p plus cell suffix s.
func splitKeyLCP(key, p, s []byte) int {
	n := lcp(key, p)
	if n < len(p) {
		return n
	}
	return n + lcp(key[n:], s)
}

// copyJoined fills dst with the leading bytes of a followed by b.
func copyJoined(dst, a, b []byte) {
	n := copy(dst, a)
	copy(dst[n:], b)
}

// insertSlot opens slot pos (shifting later slots right), points it at the
// freshly written cell at off, and updates numCells and the heap floor.
func insertSlot(d []byte, pos, off int) {
	n := pageNumCells(d)
	sb := slotBase(d)
	copy(d[sb+2*pos+2:sb+2*n+2], d[sb+2*pos:sb+2*n])
	putU16(d[sb+2*pos:], off)
	putU16(d[1:3], n+1)
	putU16(d[9:11], off)
}

// setChildInPlace re-points child slot pos of an internal page (-1 for the
// leftmost/aux child) at a new page id — the 4-byte overwrite that
// propagates a copy-on-write page replacement up the descent path.
func setChildInPlace(d []byte, pos int, child storage.PageID) {
	if pos < 0 {
		putI32(d[5:9], int32(child))
		return
	}
	off := cellOffset(d, pos)
	putI32(d[off+2:], int32(child))
}

// deleteCellInPlace removes slot i by shifting later slots left. The cell
// bytes become heap garbage reclaimed at the next fallback re-encode, except
// when the cell sits exactly at the heap floor, in which case the floor is
// raised immediately (so delete-then-insert of similar-size entries never
// needs compaction).
func deleteCellInPlace(d []byte, i int) {
	n := pageNumCells(d)
	sb := slotBase(d)
	off := cellOffset(d, i)
	if off == pageHeapStart(d) {
		var cellLen int
		if pageType(d) == pageLeaf {
			cellLen = 4 + u16(d[off:]) + u16(d[off+2:])
		} else {
			cellLen = 6 + u16(d[off:])
		}
		floor := off + cellLen
		if floor >= storage.PageSize {
			floor = 0 // heap empty again
		}
		putU16(d[9:11], floor)
	}
	copy(d[sb+2*i:sb+2*n-2], d[sb+2*i+2:sb+2*n])
	putU16(d[1:3], n-1)
}

// compareCellKey compares the full key of cell i (prefix + suffix) with key.
func compareCellKey(d []byte, i int, key []byte) int {
	prefix := pagePrefix(d)
	var suffix []byte
	if pageType(d) == pageLeaf {
		suffix, _ = leafCell(d, i)
	} else {
		suffix, _ = internalCell(d, i)
	}
	head := key
	if len(head) > len(prefix) {
		head = head[:len(prefix)]
	}
	if c := bytes.Compare(prefix, head); c != 0 {
		return c
	}
	return bytes.Compare(suffix, key[len(prefix):])
}

// checkPage validates a page header in O(1): type byte, slot array within
// the page, heap floor at or above the slot array. It is cheap enough to
// run on every fetch (see Tree.fetch), turning a structurally impossible
// page — garbage that slipped past, or a device without checksums — into a
// typed ErrCorruptPage instead of a downstream panic.
func checkPage(d []byte) error {
	t := pageType(d)
	if t != pageLeaf && t != pageInternal {
		return fmt.Errorf("btree: bad page type %d: %w", t, storage.ErrCorruptPage)
	}
	n := pageNumCells(d)
	sb := slotBase(d)
	if sb+2*n > storage.PageSize {
		return fmt.Errorf("btree: slot array overflows page (%d cells, prefix %d): %w",
			n, pagePrefixLen(d), storage.ErrCorruptPage)
	}
	if h := u16(d[9:11]); h != 0 && (h < sb+2*n || h > storage.PageSize) {
		return fmt.Errorf("btree: heap floor %d outside [%d, %d]: %w",
			h, sb+2*n, storage.PageSize, storage.ErrCorruptPage)
	}
	return nil
}

// decodePage decodes all cells of a page (splits only), bounds-checking
// every cell so a corrupt page surfaces as ErrCorruptPage rather than a
// slice panic. The entries have room for the one a split inserts.
func decodePage(d []byte) (pageContent, error) {
	if err := checkPage(d); err != nil {
		return pageContent{}, err
	}
	n := pageNumCells(d)
	prefix := pagePrefix(d)
	pc := pageContent{
		leaf:    pageType(d) == pageLeaf,
		aux:     pageAux(d),
		entries: make([]entry, n, n+1),
	}
	for i := 0; i < n; i++ {
		off := cellOffset(d, i)
		if pc.leaf {
			if off+4 > storage.PageSize {
				return pageContent{}, fmt.Errorf("btree: leaf cell %d at %d: %w", i, off, storage.ErrCorruptPage)
			}
			klen, vlen := u16(d[off:]), u16(d[off+2:])
			if off+4+klen+vlen > storage.PageSize {
				return pageContent{}, fmt.Errorf("btree: leaf cell %d overflows page: %w", i, storage.ErrCorruptPage)
			}
			suffix, val := leafCell(d, i)
			pc.entries[i] = entry{
				key: concat(prefix, suffix),
				val: append([]byte(nil), val...),
			}
		} else {
			if off+6 > storage.PageSize {
				return pageContent{}, fmt.Errorf("btree: internal cell %d at %d: %w", i, off, storage.ErrCorruptPage)
			}
			if klen := u16(d[off:]); off+6+klen > storage.PageSize {
				return pageContent{}, fmt.Errorf("btree: internal cell %d overflows page: %w", i, storage.ErrCorruptPage)
			}
			suffix, child := internalCell(d, i)
			pc.entries[i] = entry{key: concat(prefix, suffix), child: child}
		}
	}
	return pc, nil
}

func concat(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// commonPrefix returns the longest common prefix of the first and last keys
// (which, for sorted entries, is common to all).
func commonPrefix(entries []entry) []byte {
	if len(entries) == 0 {
		return nil
	}
	a, b := entries[0].key, entries[len(entries)-1].key
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return a[:n]
}

// encodedSize returns the page space needed by entries with the given
// common prefix length.
func encodedSize(pc *pageContent, plen int) int {
	size := headerSize + plen + 2*len(pc.entries)
	for _, e := range pc.entries {
		if pc.leaf {
			size += 4 + (len(e.key) - plen) + len(e.val)
		} else {
			size += 6 + (len(e.key) - plen)
		}
	}
	return size
}

// encodePage writes pc into d (a full page buffer), applying prefix
// compression. Entries must be sorted. Returns an error if pc does not fit.
func encodePage(pc *pageContent, d []byte) error {
	prefix := commonPrefix(pc.entries)
	if len(prefix) > 0xFFFF {
		prefix = prefix[:0xFFFF]
	}
	if sz := encodedSize(pc, len(prefix)); sz > storage.PageSize {
		return fmt.Errorf("btree: page overflow (%d bytes, %d entries)", sz, len(pc.entries))
	}
	for i := range d {
		d[i] = 0
	}
	if pc.leaf {
		d[0] = pageLeaf
	} else {
		d[0] = pageInternal
	}
	putU16(d[1:3], len(pc.entries))
	putU16(d[3:5], len(prefix))
	putI32(d[5:9], int32(pc.aux))
	copy(d[headerSize:], prefix)
	slot := slotBase(d)
	heap := storage.PageSize
	for i, e := range pc.entries {
		suffix := e.key[len(prefix):]
		var cellLen int
		if pc.leaf {
			cellLen = 4 + len(suffix) + len(e.val)
		} else {
			cellLen = 6 + len(suffix)
		}
		heap -= cellLen
		putU16(d[slot+2*i:], heap)
		putU16(d[heap:], len(suffix))
		if pc.leaf {
			putU16(d[heap+2:], len(e.val))
			copy(d[heap+4:], suffix)
			copy(d[heap+4+len(suffix):], e.val)
		} else {
			putI32(d[heap+2:], int32(e.child))
			copy(d[heap+6:], suffix)
		}
	}
	if heap < storage.PageSize {
		putU16(d[9:11], heap)
	}
	return nil
}

// fits reports whether pc encodes within a page.
func fits(pc *pageContent) bool {
	return encodedSize(pc, len(commonPrefix(pc.entries))) <= storage.PageSize
}
