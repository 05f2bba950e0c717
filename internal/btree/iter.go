package btree

import (
	"bytes"

	"repro/internal/storage"
)

// Iterator walks leaf entries in key order. Key and ValueRef return slices
// that are valid only until the next call to Next or Close; Value returns a
// private copy.
//
// The iterator keeps the descent path from the root and advances across
// leaves by climbing to the nearest ancestor with a further child, rather
// than following the leaf chain: chain pointers are only advisory since
// copy-on-write (a copied or split leaf cannot reach back to fix its left
// sibling's pointer without copying the whole level), while the descent
// path is always internally consistent for the tree version being read.
//
// An open iterator pins its current leaf in the buffer pool; Close unpins
// it. Mutating the tree it reads invalidates it (see Tree): Close it first.
//
// Usage:
//
//	it, err := t.Seek(probe)
//	if err != nil { ... }
//	defer it.Close()
//	for ; it.Valid(); it.Next() {
//		use(it.Key(), it.ValueRef())
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	tree *Tree
	path []iterLevel  // descent path above the current leaf (root first)
	pg   storage.Page // pinned current leaf; Data == nil when done
	idx  int
	err  error
	key  []byte // reusable buffer for prefix+suffix
}

// iterLevel records one internal page of the descent path and which child
// slot was descended into (-1 is the leftmost/aux child).
type iterLevel struct {
	id  storage.PageID
	idx int
}

// Seek returns an iterator positioned at the first entry >= key. The
// iterator pins a leaf until Close.
func (t *Tree) Seek(key []byte) (*Iterator, error) {
	it := &Iterator{}
	if err := t.SeekInto(key, it); err != nil {
		return nil, err
	}
	return it, nil
}

// SeekInto positions it at the first entry >= key, reusing its descent-path
// and key buffers — the allocation-free variant of Seek for callers that
// keep an Iterator across probes. it must not be mid-iteration (Close any
// previous use first; a Closed iterator is reusable). On error the
// iterator is left Closed.
func (t *Tree) SeekInto(key []byte, it *Iterator) error {
	it.tree = t
	it.path = it.path[:0]
	it.pg = storage.Page{}
	it.idx = 0
	it.err = nil
	id := t.root
	for h := t.height; h > 1; h-- {
		pg, err := t.fetch(id)
		if err != nil {
			it.Close()
			return err
		}
		childIdx, child := descendChild(pg.Data, key)
		t.pool.Unpin(pg, false)
		it.path = append(it.path, iterLevel{id: id, idx: childIdx})
		id = child
	}
	pg, err := t.fetch(id)
	if err != nil {
		it.Close()
		return err
	}
	it.pg = pg
	// First entry >= key within this leaf.
	it.idx = searchCell(pg.Data, key)
	it.skipExhausted()
	return nil
}

// Scan returns an iterator over the whole tree.
func (t *Tree) Scan() (*Iterator, error) {
	return t.Seek(nil)
}

// skipExhausted advances across empty / finished leaves.
func (it *Iterator) skipExhausted() {
	for it.err == nil && it.pg.Data != nil && it.idx >= pageNumCells(it.pg.Data) {
		it.tree.pool.Unpin(it.pg, false)
		it.pg = storage.Page{}
		it.nextLeaf()
	}
}

// nextLeaf repositions the iterator at the first cell of the next leaf in
// key order: it climbs the recorded descent path to the nearest ancestor
// with a further child and descends that child's leftmost spine. Leaves
// it.pg zero when the rightmost leaf was already consumed.
func (it *Iterator) nextLeaf() {
	for d := len(it.path) - 1; d >= 0; d-- {
		lv := &it.path[d]
		pg, err := it.tree.fetch(lv.id)
		if err != nil {
			it.err = err
			return
		}
		if lv.idx+1 < pageNumCells(pg.Data) {
			lv.idx++
			_, child := internalCell(pg.Data, lv.idx)
			it.tree.pool.Unpin(pg, false)
			it.path = it.path[:d+1]
			it.descendFirst(child)
			return
		}
		it.tree.pool.Unpin(pg, false)
	}
	it.path = it.path[:0] // every level exhausted: iteration done
}

// descendFirst descends the leftmost spine under id, extending the path,
// and pins the leaf it lands on.
func (it *Iterator) descendFirst(id storage.PageID) {
	for {
		pg, err := it.tree.fetch(id)
		if err != nil {
			it.err = err
			return
		}
		if pageType(pg.Data) == pageLeaf {
			it.pg = pg
			it.idx = 0
			return
		}
		child := pageAux(pg.Data) // leftmost child
		it.path = append(it.path, iterLevel{id: id, idx: -1})
		it.tree.pool.Unpin(pg, false)
		id = child
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.pg.Data != nil && it.err == nil }

// Next advances to the next entry.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.idx++
	it.skipExhausted()
}

// Key returns the current full key (prefix rejoined with suffix). The slice
// is reused by the next Key call; copy to retain.
func (it *Iterator) Key() []byte {
	key, _ := it.entry()
	return key
}

// entry returns the current full key, rejoined once into the iterator's
// buffer, and the value as a view into the page.
func (it *Iterator) entry() (key, val []byte) {
	suffix, val := leafCell(it.pg.Data, it.idx)
	it.key = append(it.key[:0], pagePrefix(it.pg.Data)...)
	it.key = append(it.key, suffix...)
	return it.key, val
}

// ValueRef returns the current value as a zero-copy view into buffer-pool
// memory, valid only until the next call to Next or Close.
func (it *Iterator) ValueRef() []byte {
	_, val := leafCell(it.pg.Data, it.idx)
	return val
}

// Value returns a private copy of the current value.
func (it *Iterator) Value() []byte {
	return append([]byte(nil), it.ValueRef()...)
}

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Close unpins the iterator's current leaf. It is safe to call twice.
func (it *Iterator) Close() {
	if it.pg.Data != nil {
		it.tree.pool.Unpin(it.pg, false)
		it.pg = storage.Page{}
	}
}

// PrefixScan is what a stream of prefix scans keeps between probes: the
// probe prefix, which the caller encodes in place
// (ps.Prefix = append(ps.Prefix[:0], ...)), and the iterator. One PrefixScan
// serves any number of trees, one scan at a time: a scan's row callback must
// not start another scan through the same PrefixScan. The zero value is
// ready to use; not goroutine-safe.
type PrefixScan struct {
	Prefix []byte
	it     Iterator
}

// ScanPrefix is the primitive behind every index lookup in the family (the
// probe prefix is the encoded fixed columns plus a reverse-schema-path
// prefix): it seeks to the first entry >= ps.Prefix and calls row, in key
// order, with each entry that starts with the prefix — the key rejoined
// once per entry, the value a view into the page, both valid only during
// the call. It returns the number of entries row was called with and the
// first error of the descent, the iteration or row; the iterator is closed
// when it returns. A warmed PrefixScan scans without allocating.
func (t *Tree) ScanPrefix(ps *PrefixScan, row func(key, val []byte) error) (rows int, err error) {
	it := &ps.it
	if err := t.SeekInto(ps.Prefix, it); err != nil {
		return 0, err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		key, val := it.entry()
		if !bytes.HasPrefix(key, ps.Prefix) {
			break
		}
		rows++
		if err := row(key, val); err != nil {
			return rows, err
		}
	}
	return rows, it.err
}

// PrefixIterator is the pull form of a prefix scan: an Iterator that is
// Valid only while its entry starts with the probe prefix.
type PrefixIterator struct {
	Iterator
	prefix []byte
}

// SeekPrefixInto positions it over all entries with the given key prefix,
// reusing its buffers (see SeekInto). The prefix slice is retained and
// must stay valid for the iteration.
func (t *Tree) SeekPrefixInto(prefix []byte, it *PrefixIterator) error {
	it.prefix = prefix
	return t.SeekInto(prefix, &it.Iterator)
}

// Valid reports whether the iterator is at an entry that still has the
// prefix.
func (it *PrefixIterator) Valid() bool {
	return it.Iterator.Valid() && bytes.HasPrefix(it.Iterator.Key(), it.prefix)
}
