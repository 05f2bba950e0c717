package btree

import (
	"fmt"

	"repro/internal/storage"
)

// Walk invokes fn with the id of every page reachable from the tree's root
// — the complete physical footprint of this version of the tree. A writer
// works on a COW clone, which never modifies or frees a page this version
// reaches. Online backup uses this to enumerate the pages it must copy out
// of a pinned snapshot.
func (t *Tree) Walk(fn func(storage.PageID) error) error {
	return t.walk(t.root, t.height, fn)
}

func (t *Tree) walk(id storage.PageID, height int, fn func(storage.PageID) error) error {
	if err := fn(id); err != nil {
		return err
	}
	if height <= 1 {
		return nil
	}
	pg, err := t.fetch(id)
	if err != nil {
		return err
	}
	n := pageNumCells(pg.Data)
	children := make([]storage.PageID, 0, n+1)
	children = append(children, pageAux(pg.Data))
	for i := 0; i < n; i++ {
		_, _, c := internalCell(pg.Data, i)
		children = append(children, c)
	}
	t.pool.Unpin(pg, false)
	for _, c := range children {
		if err := t.walk(c, height-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// maxReadHeight bounds the descent of ReadEntries: a Meta whose height is
// larger describes no tree this package builds (a fanout of two at this
// height would already exceed any device).
const maxReadHeight = 48

// ReadEntries calls fn with every entry of the tree m describes, in key
// order, reading its pages straight from dev — no buffer pool frame is
// taken, so a caller that reads a whole tree once (the engine restoring its
// store at open) leaves the pool as cold as it found it. It descends from
// the root child by child with one reused buffer per level rather than
// following the leaf chain, which copy-on-write does not keep accurate
// across tree versions. key and val alias the read buffers and are valid
// only during fn. A page that is not the node its position demands, or
// whose cells overflow it, fails with storage.ErrCorruptPage; a walk
// visiting more pages than dev holds fails as a cycle.
func ReadEntries(dev *storage.FileDisk, m Meta, fn func(key, val []byte) error) error {
	if m.Height < 1 || m.Height > maxReadHeight {
		return fmt.Errorf("btree %s: bad height %d: %w", m.Name, m.Height, storage.ErrCorruptPage)
	}
	r := &entryReader{dev: dev, name: m.Name, bufs: make([][]byte, m.Height), fn: fn}
	return r.read(m.Root, m.Height)
}

type entryReader struct {
	dev     *storage.FileDisk
	name    string
	bufs    [][]byte // bufs[h-1] holds the page being read at height h
	key     []byte
	visited int
	fn      func(key, val []byte) error
}

func (r *entryReader) read(id storage.PageID, height int) error {
	if id < 0 || int(id) >= r.dev.NumPages() {
		return fmt.Errorf("btree %s: child page %d outside the device: %w", r.name, id, storage.ErrCorruptPage)
	}
	if r.visited++; r.visited > r.dev.NumPages() {
		return fmt.Errorf("btree %s: page walk revisits pages (cycle at %d): %w", r.name, id, storage.ErrCorruptPage)
	}
	d := r.bufs[height-1]
	if d == nil {
		d = make([]byte, storage.PageSize)
		r.bufs[height-1] = d
	}
	if err := r.dev.Read(id, d); err != nil {
		return err
	}
	if err := checkPage(d); err != nil {
		return fmt.Errorf("btree %s: page %d: %w", r.name, id, err)
	}
	if leaf := pageType(d) == pageLeaf; leaf != (height == 1) {
		return fmt.Errorf("btree %s: page %d is at height %d but leaf=%v: %w", r.name, id, height, leaf, storage.ErrCorruptPage)
	}
	n := pageNumCells(d)
	if height == 1 {
		for i := 0; i < n; i++ {
			if err := checkCell(d, i); err != nil {
				return fmt.Errorf("btree %s: page %d: %w", r.name, id, err)
			}
			suffix, val := leafCell(d, i)
			r.key = append(append(r.key[:0], pagePrefix(d)...), suffix...)
			if err := r.fn(r.key, val); err != nil {
				return err
			}
		}
		return nil
	}
	// Children are read before the next one is looked up, and a child's
	// read reuses only the buffers below this level, so d stays intact.
	if err := r.read(pageAux(d), height-1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := checkCell(d, i); err != nil {
			return fmt.Errorf("btree %s: page %d: %w", r.name, id, err)
		}
		_, _, child := internalCell(d, i)
		if err := r.read(child, height-1); err != nil {
			return err
		}
	}
	return nil
}
