package btree

import (
	"bytes"

	"repro/internal/storage"
)

// Delete removes the first entry exactly matching (key, val) and reports
// whether one was found. Duplicate keys are scanned in order, crossing into
// the next leaf if necessary via the descent path (not the leaf chain,
// which copy-on-write does not keep accurate across tree versions).
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
	newRoot, found, _, emptied, err := t.deleteAt(t.root, key, val, t.height)
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

// deleteAt removes the first (key, val) match from the subtree rooted at
// id. It returns the subtree's possibly-new root (a COW copy when the
// modified spine crossed the frontier), whether a match was deleted,
// whether the scan ran off the subtree's right edge while still inside the
// key's duplicate run (cont: the parent must continue into the next
// child), and whether the subtree is now empty (emptied: the parent must
// unlink it — its page has NOT been freed; the caller owns that).
func (t *Tree) deleteAt(id storage.PageID, key, val []byte, height int) (newID storage.PageID, found, cont, emptied bool, err error) {
	if height == 1 {
		return t.deleteInLeaf(id, key, val)
	}
	myID := id
	childPos := -2 // sentinel: first iteration locates the child by key
	for {
		pg, err := t.fetch(myID)
		if err != nil {
			return myID, false, false, false, err
		}
		var child storage.PageID
		if childPos == -2 {
			childPos, child = descendChild(pg.Data, key)
		} else {
			// The previous child was exhausted inside the duplicate run:
			// advance to the next sibling while its separator still
			// admits entries equal to key.
			childPos++
			if childPos >= pageNumCells(pg.Data) {
				t.pool.Unpin(pg, false)
				return myID, false, true, false, nil
			}
			if compareCellKey(pg.Data, childPos, key) > 0 {
				t.pool.Unpin(pg, false)
				return myID, false, false, false, nil
			}
			_, child = internalCell(pg.Data, childPos)
		}
		ncells := pageNumCells(pg.Data)
		t.pool.Unpin(pg, false)
		newChild, found, cont, emptied, err := t.deleteAt(child, key, val, height-1)
		if err != nil {
			return myID, false, false, false, err
		}
		if emptied {
			// The child subtree emptied out: unlink it and dispose of its
			// page instead of re-pointing at a dead node. (If the deletion
			// COWed the child, its shared original is already retired and
			// newChild is the private copy — freed immediately below.)
			if childPos < 0 && ncells == 0 {
				// The emptied child was this node's only reference, so the
				// node empties too. Leave it untouched — the parent will
				// unlink and free it, a COW copy here would be wasted work
				// — and bubble the emptiness up.
				t.freeOrRetire(newChild)
				t.pages--
				return myID, true, false, true, nil
			}
			wpg, err := t.writable(myID)
			if err != nil {
				return myID, false, false, false, err
			}
			if childPos < 0 {
				// The leftmost (aux) child goes away: promote the first
				// separator's child to leftmost and drop the separator.
				_, c0 := internalCell(wpg.Data, 0)
				setChildInPlace(wpg.Data, -1, c0)
				deleteCellInPlace(wpg.Data, 0)
			} else {
				deleteCellInPlace(wpg.Data, childPos)
			}
			t.pool.Unpin(wpg, true)
			t.freeOrRetire(newChild)
			t.pages--
			return wpg.ID, true, false, false, nil
		}
		if newChild != child {
			wpg, err := t.writable(myID)
			if err != nil {
				return myID, false, false, false, err
			}
			setChildInPlace(wpg.Data, childPos, newChild)
			t.pool.Unpin(wpg, true)
			myID = wpg.ID
		}
		if found || !cont {
			return myID, found, false, false, nil
		}
	}
}

// deleteInLeaf finds (key, val) in one leaf — a binary search for the
// first cell >= key, then a walk of key's duplicate run only; see deleteAt
// for the return contract.
func (t *Tree) deleteInLeaf(id storage.PageID, key, val []byte) (storage.PageID, bool, bool, bool, error) {
	pg, err := t.fetch(id)
	if err != nil {
		return id, false, false, false, err
	}
	d := pg.Data
	n, plen := pageNumCells(d), pagePrefixLen(d)
	// A cell equals key only if the page prefix starts key; then the
	// suffixes decide.
	samePrefix := len(key) >= plen && bytes.Equal(pagePrefix(d), key[:plen])
	slots := headerSize + plen
	for i := searchCell(d, key); i < n; i++ {
		suffix, cellVal := leafCellAt(d, slots, i)
		if !samePrefix || !bytes.Equal(suffix, key[plen:]) {
			t.pool.Unpin(pg, false)
			return id, false, false, false, nil // past all duplicates of key
		}
		if !bytes.Equal(cellVal, val) {
			continue
		}
		// Found: drop slot i, copying the leaf first if it is frozen. The
		// cell bytes linger as heap garbage until a later insert forces a
		// compacting re-encode.
		if t.owned(id) {
			deleteCellInPlace(d, i)
			emptied := pageNumCells(d) == 0
			t.pool.Unpin(pg, true)
			return id, true, false, emptied, nil
		}
		np, err := t.allocCopy(d) // copy straight from the still-pinned frozen page
		t.pool.Unpin(pg, false)
		if err != nil {
			return id, false, false, false, err
		}
		deleteCellInPlace(np.Data, i)
		emptied := pageNumCells(np.Data) == 0
		t.retire(id)
		t.copies++
		t.pool.Unpin(np, true)
		return np.ID, true, false, emptied, nil
	}
	t.pool.Unpin(pg, false)
	return id, false, true, false, nil
}
