package btree

import "repro/internal/storage"

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
		_, c := internalCell(pg.Data, i)
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
