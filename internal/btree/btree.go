package btree

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

// Tree is a disk-backed B+-tree. It takes no latch. A handle is mutated
// (Insert, Delete, TakeRetired, TakeFresh) by one goroutine, and only while
// no other goroutine can reach it; any number of goroutines may read a
// handle nobody mutates (Get, Seek, Scan, ScanPrefix, Walk, Meta, Stats,
// CloneCOW). The engine meets this by construction: a writer mutates a
// private CloneCOW of the published handle, whose copy-on-write never
// touches a page the original reaches, and hands it to readers only by
// publishing a snapshot; a published handle is only read.
type Tree struct {
	pool *storage.Pool
	name string

	root    storage.PageID
	height  int
	pages   int64
	entries int64

	// cowFrontier makes the write path copy-on-write: pages with an id
	// below the frontier are shared with an immutable published version of
	// the tree (an engine snapshot) and are never modified in place —
	// mutations copy them to freshly allocated pages and propagate the new
	// child ids up the descent path, diverging this handle's root from the
	// version it was cloned from. Zero (every valid id is >= 0) keeps the
	// historical modify-in-place behaviour. See CloneCOW.
	cowFrontier storage.PageID

	// fresh tracks pages allocated by this handle since it was cloned. The
	// device may serve an allocation from its free list, handing out an id
	// *below* cowFrontier; such a page is nevertheless private to this
	// writer, and without this set every touch would pointlessly copy it
	// again. Nil until the first allocation under a nonzero frontier.
	fresh map[storage.PageID]struct{}

	// retired accumulates shared pages this handle stopped referencing —
	// replaced by a COW copy, or unlinked as an emptied node. Published
	// versions of the tree may still read them, so the engine collects them
	// via TakeRetired and frees each batch only after every snapshot that
	// could reference it has been released.
	retired []storage.PageID
}

// Stats describes a tree's shape and footprint.
type Stats struct {
	Name    string
	Pages   int64
	Height  int
	Entries int64
	Bytes   int64
}

// New creates an empty tree (a single empty leaf) drawing pages from pool.
func New(pool *storage.Pool, name string) (*Tree, error) {
	t := &Tree{pool: pool, name: name, height: 1}
	pg, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	t.pages++
	pc := pageContent{leaf: true, aux: storage.InvalidPage}
	err = encodePage(&pc, pg.Data)
	pool.Unpin(pg, true)
	if err != nil {
		return nil, err
	}
	t.root = pg.ID
	return t, nil
}

// Meta is the durable description of a tree: everything needed to reopen
// it over a pool whose device already holds its pages. The engine catalog
// persists one Meta per B+-tree at every commit boundary.
type Meta struct {
	Name    string
	Root    storage.PageID
	Height  int
	Pages   int64
	Entries int64
}

// Meta returns the tree's durable description.
func (t *Tree) Meta() Meta {
	return Meta{Name: t.name, Root: t.root, Height: t.height, Pages: t.pages, Entries: t.entries}
}

// Open reconstitutes a tree from a persisted Meta. The pages reachable
// from m.Root must already exist on pool's device (a reopened FileDisk);
// no I/O happens until the first operation.
func Open(pool *storage.Pool, m Meta) *Tree {
	return &Tree{
		pool:    pool,
		name:    m.Name,
		root:    m.Root,
		height:  m.Height,
		pages:   m.Pages,
		entries: m.Entries,
	}
}

// CloneCOW returns a writable handle on the same tree whose mutations
// copy-on-write every page with id < frontier instead of modifying it in
// place: the clone and the original share all pages until the clone's
// writes diverge them, after which the original still describes exactly
// the tree as of the clone point. The caller passes the device's page
// count at the moment the original became immutable (the engine records it
// when publishing a snapshot), which is a conservative superset of the
// pages the original can reference. Pages the clone stops referencing —
// the originals behind its COW copies and the nodes it unlinks — are
// recorded for TakeRetired, and the engine returns them to the device free
// list once the snapshots that could still read them drain.
func (t *Tree) CloneCOW(frontier storage.PageID) *Tree {
	return &Tree{
		pool:        t.pool,
		name:        t.name,
		root:        t.root,
		height:      t.height,
		pages:       t.pages,
		entries:     t.entries,
		cowFrontier: frontier,
	}
}

// fetch pins page id and validates its header (O(1), see checkPage): every
// tree descent goes through here, so a page that arrives structurally
// broken — from a device without checksums, or pool-state damage after a
// propagated fault — fails with a typed ErrCorruptPage instead of
// panicking in cell accessors downstream.
func (t *Tree) fetch(id storage.PageID) (storage.Page, error) {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return storage.Page{}, err
	}
	if err := checkPage(pg.Data); err != nil {
		t.pool.Unpin(pg, false)
		return storage.Page{}, fmt.Errorf("btree %s: page %d: %w", t.name, id, err)
	}
	return pg, nil
}

// writable returns a pinned page for id that is safe to mutate: the page
// itself when this handle owns it (see owned), otherwise a fresh copy on a
// newly allocated page, with the shared original retired. The caller must
// check Page.ID and propagate a changed id to the parent.
func (t *Tree) writable(id storage.PageID) (storage.Page, error) {
	pg, err := t.fetch(id)
	if err != nil || t.owned(id) {
		return pg, err
	}
	np, err := t.allocPage()
	if err != nil {
		t.pool.Unpin(pg, false)
		return storage.Page{}, err
	}
	copy(np.Data, pg.Data)
	t.pool.Unpin(pg, false)
	t.retire(id)
	return np, nil
}

// owned reports whether this handle may mutate page id in place: every
// page is owned at frontier zero, pages at or above the frontier were
// allocated after the shared version froze, and pages in fresh were
// allocated by this handle even though free-list reuse gave them a low id.
func (t *Tree) owned(id storage.PageID) bool {
	if id >= t.cowFrontier {
		return true
	}
	_, ok := t.fresh[id]
	return ok
}

// allocPage allocates a page, recording it in fresh when a COW frontier is
// active so that a recycled low id is not mistaken for a shared page.
func (t *Tree) allocPage() (storage.Page, error) {
	pg, err := t.pool.Allocate()
	if err == nil && t.cowFrontier > 0 {
		if t.fresh == nil {
			t.fresh = make(map[storage.PageID]struct{})
		}
		t.fresh[pg.ID] = struct{}{}
	}
	return pg, err
}

// retire records that this handle stopped referencing shared page id.
func (t *Tree) retire(id storage.PageID) { t.retired = append(t.retired, id) }

// freeOrRetire disposes of a page this handle no longer references. Pages
// it owns go straight back to the device free list; shared pages are
// retired for the engine to free once the snapshots that can still read
// them drain.
func (t *Tree) freeOrRetire(id storage.PageID) {
	if t.owned(id) {
		delete(t.fresh, id)
		if t.pool.Free(id) == nil {
			return
		}
		// The pool refused (the page is pinned, or the device rejected
		// the free): retiring it instead leaks nothing — the engine's
		// deferred free retries through the same path.
	}
	t.retire(id)
}

// TakeRetired returns and clears the shared pages this handle has stopped
// referencing since the previous call (or since the clone). The engine
// frees them once every snapshot published before this handle's mutations
// has been released; nothing may free them earlier, because readers of
// older tree versions still descend through them.
func (t *Tree) TakeRetired() []storage.PageID {
	r := t.retired
	t.retired = nil
	return r
}

// TakeFresh returns and clears the ids of every page this handle has
// allocated since it was cloned (tracked only under an active COW
// frontier). An abandoned writer — a transaction replayed onto a newer
// base, or rolled back — hands them straight back to the device free list:
// no published version can reference a page only the abandoned clone ever
// reached. The handle must not be used after draining its fresh set.
func (t *Tree) TakeFresh() []storage.PageID {
	if len(t.fresh) == 0 {
		return nil
	}
	out := make([]storage.PageID, 0, len(t.fresh))
	for id := range t.fresh {
		out = append(out, id)
	}
	t.fresh = nil
	return out
}

// Stats returns the tree's current shape.
func (t *Tree) Stats() Stats {
	return Stats{
		Name:    t.name,
		Pages:   t.pages,
		Height:  t.height,
		Entries: t.entries,
		Bytes:   t.pages * storage.PageSize,
	}
}

// Name returns the tree's diagnostic name.
func (t *Tree) Name() string { return t.name }

func (t *Tree) alloc(pc *pageContent) (storage.PageID, error) {
	pg, err := t.allocPage()
	if err != nil {
		return storage.InvalidPage, err
	}
	t.pages++
	err = encodePage(pc, pg.Data)
	t.pool.Unpin(pg, true)
	if err != nil {
		return storage.InvalidPage, err
	}
	return pg.ID, nil
}

func (t *Tree) write(id storage.PageID, pc *pageContent) error {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	err = encodePage(pc, pg.Data)
	t.pool.Unpin(pg, true)
	return err
}

// Insert adds (key, val); duplicate keys are allowed.
func (t *Tree) Insert(key, val []byte) error {
	if len(key)+len(val) > MaxEntrySize {
		return fmt.Errorf("btree %s: entry too large (%d bytes, max %d)", t.name, len(key)+len(val), MaxEntrySize)
	}
	newRoot, sep, right, err := t.insertAt(t.root, key, val, t.height)
	if err != nil {
		return err
	}
	t.root = newRoot
	t.entries++
	if right == storage.InvalidPage {
		return nil
	}
	// Root split: new root with the old root as leftmost child.
	rootPC := pageContent{
		leaf:    false,
		aux:     t.root,
		entries: []entry{{key: sep, child: right}},
	}
	id, err := t.alloc(&rootPC)
	if err != nil {
		return err
	}
	t.root = id
	t.height++
	return nil
}

// insertAt inserts into the subtree rooted at id (at the given height,
// 1 = leaf). It returns the subtree's possibly-new root page id — under
// copy-on-write a frozen page is replaced by a mutated copy, which the
// caller must re-point its child entry at — plus, on split, the separator
// key and new right sibling.
//
// The common case mutates the slotted page in place — binary search on the
// encoded slot array, cell appended at the heap floor, slots memmoved —
// without decoding a single entry. Only when the page needs compaction, a
// prefix change, or a split does it fall back to the decode/re-encode path.
func (t *Tree) insertAt(id storage.PageID, key, val []byte, height int) (storage.PageID, []byte, storage.PageID, error) {
	if height > 1 {
		// Internal: descend into the child for this key, then handle a
		// possible child id change (COW) or split.
		pg, err := t.fetch(id)
		if err != nil {
			return id, nil, storage.InvalidPage, err
		}
		childIdx, child := descendChild(pg.Data, key)
		t.pool.Unpin(pg, false)
		newChild, sep, right, err := t.insertAt(child, key, val, height-1)
		if err != nil {
			return id, nil, storage.InvalidPage, err
		}
		if newChild == child && right == storage.InvalidPage {
			return id, nil, storage.InvalidPage, nil
		}
		wpg, err := t.writable(id)
		if err != nil {
			return id, nil, storage.InvalidPage, err
		}
		if newChild != child {
			setChildInPlace(wpg.Data, childIdx, newChild)
		}
		if right == storage.InvalidPage {
			t.pool.Unpin(wpg, true)
			return wpg.ID, nil, storage.InvalidPage, nil
		}
		pos := childIdx + 1 // separator goes right after the descended child
		if insertInternalInPlace(wpg.Data, pos, sep, right) {
			t.pool.Unpin(wpg, true)
			return wpg.ID, nil, storage.InvalidPage, nil
		}
		pc, err := decodePage(wpg.Data)
		if err != nil {
			t.pool.Unpin(wpg, false)
			return wpg.ID, nil, storage.InvalidPage, fmt.Errorf("btree %s: page %d: %w", t.name, wpg.ID, err)
		}
		t.pool.Unpin(wpg, true)
		pc.entries = append(pc.entries, entry{})
		copy(pc.entries[pos+1:], pc.entries[pos:])
		pc.entries[pos] = entry{key: sep, child: right}
		sep2, right2, err := t.storeSplit(wpg.ID, &pc)
		return wpg.ID, sep2, right2, err
	}
	// Leaf: always mutated, so materialise a writable page up front.
	wpg, err := t.writable(id)
	if err != nil {
		return id, nil, storage.InvalidPage, err
	}
	pos := searchCell(wpg.Data, key)
	if insertLeafInPlace(wpg.Data, pos, key, val) {
		t.pool.Unpin(wpg, true)
		return wpg.ID, nil, storage.InvalidPage, nil
	}
	pc, err := decodePage(wpg.Data)
	if err != nil {
		t.pool.Unpin(wpg, false)
		return wpg.ID, nil, storage.InvalidPage, fmt.Errorf("btree %s: page %d: %w", t.name, wpg.ID, err)
	}
	t.pool.Unpin(wpg, true)
	e := entry{key: append([]byte(nil), key...), val: append([]byte(nil), val...)}
	pc.entries = append(pc.entries, entry{})
	copy(pc.entries[pos+1:], pc.entries[pos:])
	pc.entries[pos] = e
	sep, right, err := t.storeSplit(wpg.ID, &pc)
	return wpg.ID, sep, right, err
}

// storeSplit writes pc back to id, splitting into a new right sibling if it
// no longer fits.
func (t *Tree) storeSplit(id storage.PageID, pc *pageContent) ([]byte, storage.PageID, error) {
	if fits(pc) {
		return nil, storage.InvalidPage, t.write(id, pc)
	}
	mid := len(pc.entries) / 2
	rightEntries := append([]entry(nil), pc.entries[mid:]...)
	leftEntries := pc.entries[:mid]

	right := pageContent{leaf: pc.leaf, entries: rightEntries}
	left := pageContent{leaf: pc.leaf, entries: leftEntries, aux: pc.aux}
	var sep []byte
	if pc.leaf {
		sep = append([]byte(nil), rightEntries[0].key...)
		right.aux = pc.aux // old next-leaf
	} else {
		// Push the middle key up instead of duplicating it: the right
		// node's leftmost child is the pushed entry's child.
		sep = append([]byte(nil), rightEntries[0].key...)
		right.aux = rightEntries[0].child
		right.entries = rightEntries[1:]
	}
	rightID, err := t.alloc(&right)
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	if pc.leaf {
		left.aux = rightID // link leaves
	}
	if err := t.write(id, &left); err != nil {
		return nil, storage.InvalidPage, err
	}
	return sep, rightID, nil
}

// descendChild returns the index of the separator whose child should contain
// key (-1 for the leftmost child) and that child's page id.
//
// The descent rule is "largest separator strictly less than key": because a
// split can leave keys equal to the separator in the left sibling, an
// equal separator must route to the child *before* it; the linked leaf
// chain makes landing early harmless.
func descendChild(d []byte, key []byte) (int, storage.PageID) {
	idx := searchCell(d, key) - 1 // last separator < key
	if idx < 0 {
		return -1, pageAux(d)
	}
	_, child := internalCell(d, idx)
	return idx, child
}

// Get returns the value of the first entry with exactly the given key. The
// returned slice is a private copy; internal callers that can tolerate
// value-lifetime rules should prefer GetRef.
func (t *Tree) Get(key []byte) (val []byte, ok bool, err error) {
	err = t.GetRef(key, func(v []byte) error {
		val = append([]byte(nil), v...)
		ok = true
		return nil
	})
	return val, ok, err
}

// GetRef invokes fn with a zero-copy view of the value of the first entry
// with exactly the given key; fn is not called if the key is absent. The
// view aliases buffer-pool memory and is valid only for the duration of fn.
func (t *Tree) GetRef(key []byte, fn func(val []byte) error) error {
	it, err := t.Seek(key)
	if err != nil {
		return err
	}
	defer it.Close()
	if it.Valid() && bytes.Equal(it.Key(), key) {
		return fn(it.ValueRef())
	}
	return it.Err()
}
