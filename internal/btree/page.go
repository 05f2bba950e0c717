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
// long its run. A separator carries a value too where it cuts inside a run.
// Leaves are chained for range scans.
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

	// valuedSep is the bit of an internal cell's key length that marks a
	// separator carrying a value: the cell is then [key length | bit,
	// child, value length, key suffix, value], and otherwise [key length,
	// child, key suffix]. Key lengths are below MaxEntrySize, so the bit is
	// free.
	valuedSep = 0x8000
)

// entry is a decoded cell. Leaf entries use key/val; internal entries use
// key/val/child, where child holds the entries at or after (key, val) in
// entry order and a nil val is the least value (a key-only separator).
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

// internalCell returns the key suffix, value (nil for a key-only
// separator) and child of internal cell i.
func internalCell(d []byte, i int) (suffix, val []byte, child storage.PageID) {
	return internalCellAt(d, cellOffset(d, i))
}

// internalCellAt is internalCell for the cell at offset off.
func internalCellAt(d []byte, off int) (suffix, val []byte, child storage.PageID) {
	klen := u16(d[off:])
	child = storage.PageID(i32(d[off+2:]))
	if klen&valuedSep == 0 {
		return d[off+6 : off+6+klen], nil, child
	}
	klen &^= valuedSep
	cell := d[off+8:]
	return cell[:klen], cell[klen : klen+u16(d[off+6:])], child
}

// cellHeader returns the header size of a cell holding val: key and value
// lengths on a leaf; key length and child on an internal page, plus the
// value length when the separator carries a value.
func cellHeader(leaf bool, val []byte) int {
	switch {
	case leaf:
		return 4
	case len(val) == 0:
		return 6
	}
	return 8
}

// putCell writes the header of a cell at off of page d — klen key bytes,
// then val, under child on an internal page — and val itself, and returns
// the offset the caller copies the klen key bytes to.
func putCell(d []byte, off int, leaf bool, klen int, val []byte, child storage.PageID) int {
	hdr := cellHeader(leaf, val)
	switch {
	case leaf:
		putU16(d[off:], klen)
		putU16(d[off+2:], len(val))
	case hdr == 6:
		putU16(d[off:], klen)
		putI32(d[off+2:], int32(child))
	default:
		putU16(d[off:], klen|valuedSep)
		putI32(d[off+2:], int32(child))
		putU16(d[off+6:], len(val))
	}
	copy(d[off+hdr+klen:], val)
	return off + hdr
}

// cellLen returns the bytes of the cell at off of page d; the caller has
// checked that its header lies within the page (see checkCell).
func cellLen(d []byte, off int) int {
	klen := u16(d[off:])
	switch {
	case pageType(d) == pageLeaf:
		return 4 + klen + u16(d[off+2:])
	case klen&valuedSep == 0:
		return 6 + klen
	}
	return 8 + klen&^valuedSep + u16(d[off+6:])
}

// checkCell reports a cell i of page d whose header or body overflows the
// page as ErrCorruptPage: the bounds check of every decoder that trusts
// no page (decodePage, ReadEntries, the iterator's climb).
func checkCell(d []byte, i int) error {
	off := cellOffset(d, i)
	hdr := 4
	if pageType(d) != pageLeaf {
		hdr = 6
		if off+2 <= storage.PageSize && u16(d[off:])&valuedSep != 0 {
			hdr = 8
		}
	}
	if off+hdr > storage.PageSize || off+cellLen(d, off) > storage.PageSize {
		return fmt.Errorf("btree: cell %d at %d overflows the page: %w", i, off, storage.ErrCorruptPage)
	}
	return nil
}

// search returns the index of the first cell of page d at or after
// (key, val) in entry order — by key, then by the tree's value order, a
// key-only separator holding the least value — or, when after is set, the
// first cell after it. It binary-searches the slot array on the encoded
// page: key is compared with the page prefix once, then cell suffixes with
// the rest of key. A read (val empty, after unset) never compares a value:
// on a key tie every cell is at or after (key, least value).
//
// The descents derive from it: Insert and Delete go to the child of the
// last separator at or before (key, val) (search after it, minus one);
// Seek goes to the child of the last separator whose key is below key
// (search (key, nil), minus one), landing early at worst when a run spans
// children — an iterator's climb to the next leaf makes that harmless.
func (t *Tree) search(d []byte, key, val []byte, after bool) int {
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
		klen, at := u16(d[off:]), off+hdr
		if klen&valuedSep != 0 { // only on internal pages
			klen &^= valuedSep
			at += 2
		}
		c := bytes.Compare(d[at:at+klen], rest)
		if c == 0 && (after || len(val) > 0) {
			var v []byte // a key-only separator's: the least value
			if at-off != 6 {
				// A leaf cell's or a valued separator's: the value
				// length is the header's last field.
				v = d[at+klen : at+klen+u16(d[at-2:])]
			}
			c = t.compareVal(v, val)
		}
		if c < 0 || c == 0 && after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descend returns the index of the separator of internal page d whose
// child holds (key, val) (-1 for the leftmost child) and that child's id:
// for a write, the last separator at or before (key, val); for a read
// (write unset, val nil), the last one whose key is below key (see search).
func (t *Tree) descend(d []byte, key, val []byte, write bool) (int, storage.PageID) {
	idx := t.search(d, key, val, write) - 1
	return idx, childAt(d, idx)
}

// childAt returns the child of separator i of internal page d, the
// leftmost child for -1.
func childAt(d []byte, i int) storage.PageID {
	if i < 0 {
		return pageAux(d)
	}
	_, _, child := internalCell(d, i)
	return child
}

// insertInPlace writes (key, val) — under child on an internal page — as
// cell pos without re-encoding the page: the cell is appended at the heap
// floor and the slot array is shifted by one. It reports false — leaving
// the page untouched — when the stored prefix does not cover key or the
// contiguous free gap is too small; the caller then falls back to
// insertCompacting, which compacts the heap and recomputes the prefix.
func insertInPlace(d []byte, pos int, key, val []byte, child storage.PageID) bool {
	plen := pagePrefixLen(d)
	if len(key) < plen || !bytes.Equal(key[:plen], pagePrefix(d)) {
		return false
	}
	suffix := key[plen:]
	leaf := pageType(d) == pageLeaf
	cellLen := cellHeader(leaf, val) + len(suffix) + len(val)
	if cellLen+2 > pageFreeGap(d) {
		return false
	}
	heap := pageHeapStart(d) - cellLen
	copy(d[putCell(d, heap, leaf, len(suffix), val, child):], suffix)
	insertSlot(d, pos, heap)
	return true
}

// insertCompacting writes (key, val) — under child on an internal page —
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
	old := pagePrefix(d)
	oldSlots := headerSize + len(old)
	cell := func(i int) (suffix, v []byte, c storage.PageID) {
		if leaf {
			suffix, v = leafCellAt(d, oldSlots, i)
			return suffix, v, storage.InvalidPage
		}
		return internalCell(d, i)
	}

	// Every key between the first and the last shares their common prefix.
	var plen int
	switch {
	case n == 0:
		plen = len(key)
	case pos == 0:
		last, _, _ := cell(n - 1)
		plen = splitKeyLCP(key, old, last)
	case pos == n:
		first, _, _ := cell(0)
		plen = splitKeyLCP(key, old, first)
	default:
		first, _, _ := cell(0)
		last, _, _ := cell(n - 1)
		plen = len(old) + lcp(first, last)
	}
	size := headerSize + plen + 2*(n+1) + cellHeader(leaf, val) + len(key) - plen + len(val)
	for i := 0; i < n; i++ {
		suffix, v, _ := cell(i)
		size += cellHeader(leaf, v) + len(old) + len(suffix) - plen + len(v)
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
		first, _, _ := cell(0)
		copyJoined(scratch[headerSize:headerSize+plen], old, first)
	}
	slots, heap := headerSize+plen, storage.PageSize
	for j := 0; j <= n; j++ {
		if j == pos {
			suffix := key[plen:]
			heap -= cellHeader(leaf, val) + len(suffix) + len(val)
			copy(scratch[putCell(scratch, heap, leaf, len(suffix), val, child):], suffix)
		} else {
			i := j
			if j > pos {
				i--
			}
			suffix, v, c := cell(i)
			klen := len(old) + len(suffix) - plen // the key's length past the new prefix
			heap -= cellHeader(leaf, v) + klen + len(v)
			at := putCell(scratch, heap, leaf, klen, v, c)
			if plen < len(old) {
				copyJoined(scratch[at:at+klen], old[plen:], suffix)
			} else {
				copy(scratch[at:], suffix[plen-len(old):])
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
		floor := off + cellLen(d, off)
		if floor >= storage.PageSize {
			floor = 0 // heap empty again
		}
		putU16(d[9:11], floor)
	}
	copy(d[sb+2*i:sb+2*n-2], d[sb+2*i+2:sb+2*n])
	putU16(d[1:3], n-1)
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
		if err := checkCell(d, i); err != nil {
			return pageContent{}, err
		}
		if pc.leaf {
			suffix, val := leafCell(d, i)
			pc.entries[i] = entry{key: concat(prefix, suffix), val: append([]byte(nil), val...)}
		} else {
			suffix, val, child := internalCell(d, i)
			pc.entries[i] = entry{key: concat(prefix, suffix), val: append([]byte(nil), val...), child: child}
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
		size += cellHeader(pc.leaf, e.val) + len(e.key) - plen + len(e.val)
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
		heap -= cellHeader(pc.leaf, e.val) + len(suffix) + len(e.val)
		putU16(d[slot+2*i:], heap)
		copy(d[putCell(d, heap, pc.leaf, len(suffix), e.val, e.child):], suffix)
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
