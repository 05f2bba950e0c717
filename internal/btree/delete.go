package btree

import "repro/internal/storage"

// Delete removes an entry exactly matching (key, val) and reports whether
// one was found. It descends as Insert does, to the child of the last
// separator at or before (key, val) in entry order — by key, and within a
// run of duplicate keys by the tree's value order, a key-only separator
// holding the least value — so a delete costs one binary search per level
// however long the run.
//
// Deletion never merges or rebalances part-full pages, but a node whose
// last entry is removed is unlinked from its parent and its page freed (or
// retired, if an older tree version shares it). Without that, a workload
// whose live key range drifts — delete low keys, insert high ones — would
// accrete dead leaves forever, because lazily emptied pages on the low end
// are never refilled. Unlinking is safe because the removed separator just
// widens the left neighbour's key range, and nothing follows the leaf
// chain across versions (iterators navigate by descent path). Under a COW
// frontier (see CloneCOW) the modified spine is copied instead of
// modified, and the replaced originals are retired.
func (t *Tree) Delete(key, val []byte) (bool, error) {
	newRoot, found, emptied, err := t.deleteAt(t.root, key, val, t.height)
	if err != nil {
		return false, err
	}
	t.root = newRoot
	if found {
		t.entries--
	}
	if emptied && t.height > 1 {
		// Every entry under the root internal node is gone: dispose of it
		// and start over from a fresh empty leaf, as New does.
		t.freeOrRetire(newRoot)
		t.pages--
		pc := pageContent{leaf: true, aux: storage.InvalidPage}
		id, err := t.alloc(&pc)
		if err != nil {
			return found, err
		}
		t.root = id
		t.height = 1
	}
	return found, nil
}

// deleteAt removes (key, val) from the subtree rooted at id. It returns
// the subtree's possibly-new root (a COW copy when the modified spine
// crossed the frontier), whether a match was deleted, and whether the
// subtree is now empty (emptied: the parent must unlink it — its page has
// NOT been freed; the caller owns that).
func (t *Tree) deleteAt(id storage.PageID, key, val []byte, height int) (newID storage.PageID, found, emptied bool, err error) {
	if height == 1 {
		return t.deleteInLeaf(id, key, val)
	}
	pg, err := t.fetch(id)
	if err != nil {
		return id, false, false, err
	}
	childPos, child := t.descend(pg.Data, key, val, true)
	ncells := pageNumCells(pg.Data)
	var newChild storage.PageID
	for {
		again := holds(pg.Data, childPos, key, val)
		t.pool.Unpin(pg, false)
		newChild, found, emptied, err = t.deleteAt(child, key, val, height-1)
		if err != nil || found || !again {
			break
		}
		// A split cut between two copies of (key, val) and made the later
		// one separator childPos: the earlier copies are before it.
		if pg, err = t.fetch(id); err != nil {
			return id, false, false, err
		}
		childPos--
		child = childAt(pg.Data, childPos)
	}
	if err != nil || !found {
		return id, false, false, err
	}
	if emptied {
		// The child subtree emptied out: unlink it and dispose of its page
		// instead of re-pointing at a dead node. (If the deletion COWed
		// the child, its shared original is already retired and newChild
		// is the private copy — freed below.)
		if childPos < 0 && ncells == 0 {
			// The emptied child was this node's only reference, so the
			// node empties too. Leave it untouched — the parent will
			// unlink and free it, a COW copy here would be wasted work —
			// and bubble the emptiness up.
			t.freeOrRetire(newChild)
			t.pages--
			return id, true, true, nil
		}
		wpg, err := t.writable(id)
		if err != nil {
			return id, false, false, err
		}
		if childPos < 0 {
			// The leftmost (aux) child goes away: promote the first
			// separator's child to leftmost and drop the separator.
			_, _, c0 := internalCell(wpg.Data, 0)
			setChildInPlace(wpg.Data, -1, c0)
			deleteCellInPlace(wpg.Data, 0)
		} else {
			deleteCellInPlace(wpg.Data, childPos)
		}
		t.pool.Unpin(wpg, true)
		t.freeOrRetire(newChild)
		t.pages--
		return wpg.ID, true, false, nil
	}
	if newChild == child {
		return id, true, false, nil
	}
	wpg, err := t.writable(id)
	if err != nil {
		return id, false, false, err
	}
	setChildInPlace(wpg.Data, childPos, newChild)
	t.pool.Unpin(wpg, true)
	return wpg.ID, true, false, nil
}

// deleteInLeaf removes (key, val) from one leaf: the binary search for its
// place in entry order lands on it or on nothing. See deleteAt for the
// return contract.
func (t *Tree) deleteInLeaf(id storage.PageID, key, val []byte) (storage.PageID, bool, bool, error) {
	pg, err := t.fetch(id)
	if err != nil {
		return id, false, false, err
	}
	i := t.search(pg.Data, key, val, false)
	if !holds(pg.Data, i, key, val) {
		t.pool.Unpin(pg, false)
		return id, false, false, nil
	}
	// Found: drop slot i, copying the leaf first if it is frozen. The cell
	// bytes linger as heap garbage until a later insert forces a
	// compacting re-encode.
	wpg, err := t.own(pg)
	if err != nil {
		return id, false, false, err
	}
	deleteCellInPlace(wpg.Data, i)
	emptied := pageNumCells(wpg.Data) == 0
	t.pool.Unpin(wpg, true)
	return wpg.ID, true, emptied, nil
}
