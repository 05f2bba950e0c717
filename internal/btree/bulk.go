package btree

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

// bulkFill targets this fraction of a page during bulk load, leaving slack
// for later inserts.
const bulkFillPercent = 90

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Entry is a key/value pair for bulk loading.
type Entry struct {
	Key []byte
	Val []byte
}

// span is a half-open range [lo, hi) into a level's input slice.
type span struct{ lo, hi int }

// BulkLoad builds a tree from entries, which must be sorted by key
// (duplicates allowed) and, within a run of duplicate keys, by the value
// order the owner then sets on the tree (SetValueOrder) — unchecked here,
// and required only of a tree that is later mutated: Insert and Delete
// descend by separators cut in that order. It is the fast path for index
// construction: pages are written once, left-to-right, at a uniform fill
// factor. Every page comes from Pool.Allocate, so a load reuses the
// device's free pages before it grows the file; each leaf's page is
// reserved before its left neighbour is written, so the leaf chain is
// linked as it is written — no fix-up pass re-fetching leaves to link
// them. A load that fails frees every page it took.
func BulkLoad(pool *storage.Pool, name string, entries []Entry) (_ *Tree, err error) {
	for i, e := range entries {
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) > 0 {
			return nil, fmt.Errorf("btree %s: bulk load input not sorted at %d", name, i)
		}
		if len(e.Key)+len(e.Val) > MaxEntrySize {
			return nil, fmt.Errorf("btree %s: entry too large (%d bytes, max %d)", name, len(e.Key)+len(e.Val), MaxEntrySize)
		}
	}
	t := &Tree{pool: pool, name: name, height: 1}
	limit := storage.PageSize * bulkFillPercent / 100

	// Lay out the leaf level: page boundaries account for prefix
	// compression — with sorted input, a page's common prefix is the common
	// prefix of its first key and the incoming key, so the compressed size
	// is tracked incrementally.
	var leaves []span
	start, sumFull := 0, 0 // sumFull: uncompressed cell+slot bytes in [start, i)
	for i, e := range entries {
		sz := 4 + len(e.Key) + len(e.Val) + 2
		if i > start {
			plen := commonPrefixLen(entries[start].Key, e.Key)
			compressed := headerSize + plen + sumFull + sz - (i-start+1)*plen
			if compressed > limit {
				leaves = append(leaves, span{start, i})
				start, sumFull = i, 0
			}
		}
		sumFull += sz
	}
	if start < len(entries) {
		leaves = append(leaves, span{start, len(entries)})
	}
	t.entries = int64(len(entries))
	var taken []storage.PageID
	defer func() {
		if err != nil {
			for _, id := range taken {
				_ = pool.Free(id) // a refused free leaks the page, which is safe
			}
		}
	}()

	if len(leaves) == 0 {
		// Empty input: single empty leaf.
		id, err := t.alloc(&pageContent{leaf: true, aux: storage.InvalidPage})
		if err != nil {
			return nil, err
		}
		t.root = id
		return t, nil
	}

	// Write the leaves, chained left to right. Each leaf's page is reserved
	// — allocated and unpinned, a zeroed frame left in the pool — before
	// its left neighbour is written, so the neighbour's next pointer is
	// known when it is encoded while only one page is pinned at a time.
	level := make([]entry, len(leaves)) // (first key, page id) per node
	var cells []entry
	next, err := reserve(pool)
	if err != nil {
		return nil, err
	}
	taken = append(taken, next)
	for i, sp := range leaves {
		id := next
		if next = storage.InvalidPage; i+1 < len(leaves) {
			if next, err = reserve(pool); err != nil {
				return nil, err
			}
			taken = append(taken, next)
		}
		cells = cells[:0]
		for _, e := range entries[sp.lo:sp.hi] {
			cells = append(cells, entry{key: e.Key, val: e.Val})
		}
		pg, err := pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		if err := t.encodeNew(pg, &pageContent{leaf: true, aux: next, entries: cells}); err != nil {
			return nil, err
		}
		level[i] = entry{key: entries[sp.lo].Key, child: id}
		if i > 0 && bytes.Equal(entries[sp.lo-1].Key, entries[sp.lo].Key) {
			level[i].val = entries[sp.lo].Val // the cut lands inside a run
		}
	}

	// Build internal levels bottom-up until one node remains. The first
	// child of each node becomes the leftmost pointer (no cell); its
	// separator — the node's first key, and value where a run crosses the
	// boundary — labels the node one level up.
	for len(level) > 1 {
		var nodes []span
		start, nodeSz := 0, headerSize
		for i := range level {
			if i == start {
				continue // leftmost child: consumed by aux, no cell
			}
			sz := cellHeader(false, level[i].val) + len(level[i].key) + len(level[i].val) + 2
			if nodeSz+sz > limit {
				nodes = append(nodes, span{start, i})
				start, nodeSz = i, headerSize
			} else {
				nodeSz += sz
			}
		}
		nodes = append(nodes, span{start, len(level)})

		next := make([]entry, len(nodes))
		for i, sp := range nodes {
			id, err := t.alloc(&pageContent{
				leaf:    false,
				aux:     level[sp.lo].child,
				entries: level[sp.lo+1 : sp.hi],
			})
			if err != nil {
				return nil, err
			}
			taken = append(taken, id)
			next[i] = entry{key: level[sp.lo].key, val: level[sp.lo].val, child: id}
		}
		level = next
		t.height++
	}
	t.root = level[0].child
	return t, nil
}

// reserve allocates a page from pool and unpins it at once, returning its
// id: the page stays allocated, its zeroed frame dirty in the pool (or,
// once evicted, on the device) until the caller fetches it to write its
// image.
func reserve(pool *storage.Pool) (storage.PageID, error) {
	pg, err := pool.Allocate()
	if err != nil {
		return storage.InvalidPage, err
	}
	return pg.ID, pool.Unpin(pg, true)
}
