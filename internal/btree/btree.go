package btree

import (
	"bytes"
	"fmt"
	"slices"

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

	// copies counts the shared pages this handle copied on write since it
	// was cloned (Copies).
	copies int

	// order sorts the entries of one key's duplicate run by value (nil:
	// bytes.Compare). Its owner sets it (SetValueOrder) on every handle it
	// builds or opens; it is not persisted. Insert and Delete descend by it
	// (see search), so a tree is only ever mutated under the order its runs
	// and separators were written in.
	order func(a, b []byte) int
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
		order:       t.order,
	}
}

// SetValueOrder sets the order of the values within one key's duplicate
// run (see Tree.order): entries sort by key, then by order. The tree's
// runs must already be in that order — a BulkLoad input sorted so, or a
// tree only ever mutated under the same order.
func (t *Tree) SetValueOrder(order func(a, b []byte) int) { t.order = order }

// compareVal compares two values of one key under the tree's value order.
func (t *Tree) compareVal(a, b []byte) int {
	if t.order == nil {
		return bytes.Compare(a, b)
	}
	return t.order(a, b)
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

// writable returns a pinned page for id that is safe to mutate (see own).
func (t *Tree) writable(id storage.PageID) (storage.Page, error) {
	pg, err := t.fetch(id)
	if err != nil {
		return pg, err
	}
	return t.own(pg)
}

// own returns pg, a pinned page of this tree, when this handle may mutate
// it (see owned), and otherwise a pinned copy of it on a newly allocated
// page, unpinning pg and retiring the shared original. The caller must
// check Page.ID and propagate a changed id to the parent.
func (t *Tree) own(pg storage.Page) (storage.Page, error) {
	if t.owned(pg.ID) {
		return pg, nil
	}
	np, err := t.allocCopy(pg.Data)
	t.pool.Unpin(pg, false)
	if err != nil {
		return storage.Page{}, err
	}
	t.retire(pg.ID)
	t.copies++
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

// allocPage allocates a zeroed page, recording it in fresh when a COW
// frontier is active so that a recycled low id is not mistaken for a
// shared page.
func (t *Tree) allocPage() (storage.Page, error) { return t.noteFresh(t.pool.Allocate()) }

// allocCopy is allocPage with the page a copy of src, for copy-on-write.
func (t *Tree) allocCopy(src []byte) (storage.Page, error) {
	return t.noteFresh(t.pool.AllocateCopy(src))
}

// noteFresh records a page just allocated to this handle in fresh.
func (t *Tree) noteFresh(pg storage.Page, err error) (storage.Page, error) {
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

// Copies returns the number of shared pages this handle has copied on
// write since it was cloned: the page work a writer's changes cost the
// tree beyond the pages they allocate for growth.
func (t *Tree) Copies() int { return t.copies }

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
	if err := t.encodeNew(pg, pc); err != nil {
		return storage.InvalidPage, err
	}
	return pg.ID, nil
}

// encodeNew encodes pc into pg, a pinned page newly allocated to this
// tree, and unpins it.
func (t *Tree) encodeNew(pg storage.Page, pc *pageContent) error {
	t.pages++
	err := encodePage(pc, pg.Data)
	t.pool.Unpin(pg, true)
	return err
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

// Insert adds (key, val) at its place in entry order: by key, and within
// a run of duplicate keys by the tree's value order (SetValueOrder), found
// by one binary search per level like any other key.
func (t *Tree) Insert(key, val []byte) error {
	if len(key)+len(val) > MaxEntrySize {
		return fmt.Errorf("btree %s: entry too large (%d bytes, max %d)", t.name, len(key)+len(val), MaxEntrySize)
	}
	newRoot, split, err := t.insertAt(t.root, key, val, t.height)
	if err != nil {
		return err
	}
	t.root = newRoot
	t.entries++
	if split == nil {
		return nil
	}
	// Root split: new root with the old root as leftmost child.
	rootPC := pageContent{aux: t.root, entries: []entry{*split}}
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
// caller must re-point its child entry at — and, on split, the separator
// of the new right sibling (its child).
//
// The common case mutates the slotted page in place — binary search on the
// encoded slot array, cell appended at the heap floor, slots memmoved —
// without decoding a single entry. When the page needs compaction or a
// prefix change it is re-encoded from its own slots (insertCompacting);
// only a split decodes its entries.
func (t *Tree) insertAt(id storage.PageID, key, val []byte, height int) (storage.PageID, *entry, error) {
	if height == 1 {
		wpg, err := t.writable(id)
		if err != nil {
			return id, nil, err
		}
		pos := t.search(wpg.Data, key, val, false)
		split, err := t.insertInto(wpg, pos, entry{key: key, val: val, child: storage.InvalidPage})
		return wpg.ID, split, err
	}
	// Internal: descend into the child for (key, val), then handle a
	// possible child id change (COW) or split.
	pg, err := t.fetch(id)
	if err != nil {
		return id, nil, err
	}
	childIdx, child := t.descend(pg.Data, key, val, true)
	t.pool.Unpin(pg, false)
	newChild, split, err := t.insertAt(child, key, val, height-1)
	if err != nil || newChild == child && split == nil {
		return id, nil, err
	}
	wpg, err := t.writable(id)
	if err != nil {
		return id, nil, err
	}
	if newChild != child {
		setChildInPlace(wpg.Data, childIdx, newChild)
	}
	if split == nil {
		t.pool.Unpin(wpg, true)
		return wpg.ID, nil, nil
	}
	split, err = t.insertInto(wpg, childIdx+1, *split) // right after the descended child
	return wpg.ID, split, err
}

// insertInto writes e as cell pos of wpg, a pinned writable page, and
// unpins it: in place, else compacted, else split across wpg and a new
// right sibling, whose separator it returns. A leaf entry's bytes are the
// caller's; a split copies them.
func (t *Tree) insertInto(wpg storage.Page, pos int, e entry) (*entry, error) {
	if insertInPlace(wpg.Data, pos, e.key, e.val, e.child) || t.insertCompacting(wpg.Data, pos, e.key, e.val, e.child) {
		t.pool.Unpin(wpg, true)
		return nil, nil
	}
	pc, err := decodePage(wpg.Data)
	if err != nil {
		t.pool.Unpin(wpg, false)
		return nil, fmt.Errorf("btree %s: page %d: %w", t.name, wpg.ID, err)
	}
	t.pool.Unpin(wpg, true)
	e.key, e.val = slices.Clone(e.key), slices.Clone(e.val)
	pc.entries = slices.Insert(pc.entries, pos, e)
	return t.storeSplit(wpg.ID, &pc)
}

// insertCompacting is the page-level insertCompacting with a scratch page
// from the pool's recycler.
func (t *Tree) insertCompacting(d []byte, pos int, key, val []byte, child storage.PageID) bool {
	scratch := t.pool.ScratchPage()
	ok := insertCompacting(d, scratch, pos, key, val, child)
	t.pool.RecycleScratch(scratch)
	return ok
}

// storeSplit writes pc, which does not fit one page, back to id and a new
// right sibling, and returns the sibling's separator: the right side's
// first key, and its first value too where the cut lands inside a run of
// equal keys — so every entry of the left side is before the separator in
// entry order and every entry of the right side at or after it.
func (t *Tree) storeSplit(id storage.PageID, pc *pageContent) (*entry, error) {
	mid := splitPoint(pc)
	rightEntries := append([]entry(nil), pc.entries[mid:]...)
	left := pageContent{leaf: pc.leaf, entries: pc.entries[:mid], aux: pc.aux}
	right := pageContent{leaf: pc.leaf, entries: rightEntries}
	sep := rightEntries[0]
	if pc.leaf {
		right.aux = pc.aux // old next-leaf
		if !bytes.Equal(pc.entries[mid-1].key, sep.key) {
			sep.val = nil
		}
	} else {
		// Push the middle separator up, its value with it, instead of
		// duplicating it: the right node's leftmost child is its child.
		right.aux = sep.child
		right.entries = rightEntries[1:]
	}
	rightID, err := t.alloc(&right)
	if err != nil {
		return nil, err
	}
	if pc.leaf {
		left.aux = rightID // link leaves
	}
	if err := t.write(id, &left); err != nil {
		return nil, err
	}
	sep.child = rightID
	return &sep, nil
}

// splitPoint returns the entry storeSplit cuts pc before: the middle one,
// unless a half would not fit a page, and then the cut nearest the middle
// at which both halves fit. A half can overflow when a key unrelated to
// the others collapses a long page prefix: the half it lands in stores
// every key whole. An internal split pushes the cut entry up, so it
// belongs to neither half.
func splitPoint(pc *pageContent) int {
	n := len(pc.entries)
	halvesFit := func(mid int) bool {
		right := pc.entries[mid:]
		if !pc.leaf {
			right = right[1:]
		}
		return fits(&pageContent{leaf: pc.leaf, entries: pc.entries[:mid]}) &&
			fits(&pageContent{leaf: pc.leaf, entries: right})
	}
	for d := 0; d < n; d++ {
		for _, mid := range [2]int{n/2 - d, n/2 + d} {
			if mid >= 1 && mid < n && halvesFit(mid) {
				return mid
			}
		}
	}
	return n / 2 // nothing fits: the write reports the overflow
}

// holds reports whether cell pos of page d is (key, val): a leaf entry, or
// on an internal page a separator (key-only when val is empty).
func holds(d []byte, pos int, key, val []byte) bool {
	if pos < 0 || pos >= pageNumCells(d) {
		return false
	}
	var suffix, v []byte
	if pageType(d) == pageLeaf {
		suffix, v = leafCell(d, pos)
	} else {
		suffix, v, _ = internalCell(d, pos)
	}
	prefix := pagePrefix(d)
	return len(key) == len(prefix)+len(suffix) && bytes.HasPrefix(key, prefix) &&
		bytes.Equal(key[len(prefix):], suffix) && bytes.Equal(v, val)
}

// Get returns a private copy of the value of the first entry with exactly
// the given key.
func (t *Tree) Get(key []byte) (val []byte, ok bool, err error) {
	it, err := t.Seek(key)
	if err != nil {
		return nil, false, err
	}
	defer it.Close()
	if it.Valid() && bytes.Equal(it.Key(), key) {
		return append([]byte(nil), it.ValueRef()...), true, nil
	}
	return nil, false, it.Err()
}
