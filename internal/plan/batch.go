package plan

import (
	"slices"
	"sort"
)

// Batched execution over decoded id blocks. Operators exchange flat
// row-major int64 blocks (brel) instead of per-row []int64 tuples: an index
// probe decodes its id lists once (idlist.DecodeDeltaInto under the index
// layer) and appends rows straight into a block, joins consume and produce
// blocks, and every block lives in the executing Runtime — the per-query
// arena attached to the cached plan — so a steady-state cache-hit query
// performs no allocations at all. BlockRows is the growth and processing
// quantum: block capacity is extended in BlockRows-row steps, which keeps
// reallocation rare and bounds the transient working set of a growing
// operator output.

// BlockRows is the number of rows per allocation block of an intermediate
// result. 1024 rows of a typical 2–4 column relation is 16–32KB — a few L1
// caches worth, large enough to amortise growth, small enough not to bloat
// pooled runtimes.
const BlockRows = 1024

// brel is a batched intermediate relation: n rows of fixed width stored
// row-major in one flat block. The column-to-twig-node mapping is static
// per operator and lives on the plan Node (computed once at build time), so
// the executing relation is pure data.
type brel struct {
	width int
	data  []int64 // len == rows*width
}

func (r *brel) reset(width int) {
	r.width = width
	r.data = r.data[:0]
}

func (r *brel) rows() int {
	if r.width == 0 {
		return 0
	}
	return len(r.data) / r.width
}

// row returns row i as a slice into the block (valid until the next grow).
func (r *brel) row(i int) []int64 {
	return r.data[i*r.width : (i+1)*r.width]
}

// newRow extends the relation by one row and returns its (zeroed-length
// irrelevant: caller fills every column) slot. Capacity grows in
// BlockRows-row quanta, doubling, so steady-state reuse never allocates.
func (r *brel) newRow() []int64 {
	n := len(r.data)
	if n+r.width > cap(r.data) {
		r.grow(n + r.width)
	}
	r.data = r.data[:n+r.width]
	return r.data[n:]
}

func (r *brel) grow(need int) {
	nc := 2 * cap(r.data)
	if min := BlockRows * r.width; nc < min {
		nc = min
	}
	for nc < need {
		nc *= 2
	}
	nd := make([]int64, len(r.data), nc)
	copy(nd, r.data)
	r.data = nd
}

// appendRow appends a full row (copying it into the block).
func (r *brel) appendRow(row []int64) {
	copy(r.newRow(), row)
}

// bindRows appends one row per schema-match assignment in asn (k path
// positions each, flat): column i of a row is ids[asn[i]].
func (r *brel) bindRows(asn []int, k int, ids []int64) {
	for ; len(asn) > 0; asn = asn[k:] {
		row := r.newRow()
		for i, p := range asn[:k] {
			row[i] = ids[p]
		}
	}
}

// truncate drops rows from index n on.
func (r *brel) truncate(n int) {
	r.data = r.data[:n*r.width]
}

// rowAfter appends the row t ++ (id), rowBefore the row (id) ++ t. t must be
// a row of another block: newRow may move this one, and a slice into it
// would then point at the abandoned copy.
func (r *brel) rowAfter(t []int64, id int64) {
	row := r.newRow()
	copy(row, t)
	row[len(t)] = id
}

func (r *brel) rowBefore(id int64, t []int64) {
	row := r.newRow()
	row[0] = id
	copy(row[1:], t)
}

// keepKeys keeps, in place, the rows whose column col is in keys. Rows only
// move towards the front — the write cursor never passes the read cursor.
func (r *brel) keepKeys(col int, keys *hashTab, c *JoinCounters) {
	n := r.rows()
	c.TuplesIn += int64(n)
	kept := 0
	for i := 0; i < n; i++ {
		if row := r.row(i); keys.contains(row[col]) {
			copy(r.row(kept), row)
			kept++
		}
	}
	r.truncate(kept)
	c.TuplesOut += int64(kept)
}

// rowSorter is the DISTINCT kernel's sort.Interface over the rows of one
// flat block. It lives on the pooled Runtime, so handing it to sort.Sort
// converts a pointer into an already-allocated struct and a warmed run
// still allocates nothing.
type rowSorter struct {
	data  []int64
	width int
}

func (s *rowSorter) Len() int { return len(s.data) / s.width }

func (s *rowSorter) Less(i, j int) bool {
	w := s.width
	return slices.Compare(s.data[i*w:i*w+w], s.data[j*w:j*w+w]) < 0
}

func (s *rowSorter) Swap(i, j int) {
	w := s.width
	a, b := s.data[i*w:i*w+w], s.data[j*w:j*w+w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// distinct is the executor's one DISTINCT: it sorts the width-wide rows of
// data lexicographically, drops duplicates, and returns the shortened
// slice, all in place. Index scans deliver ids in key order, so most
// inputs are already strictly increasing and cost one comparison pass;
// a single column goes through slices.Sort (linear on the presorted runs a
// scan produces), wider rows through the library's pattern-defeating sort
// behind rowSorter.
func (rt *Runtime) distinct(data []int64, width int) []int64 {
	if len(data) <= width {
		return data
	}
	sorted, dups := true, false
	for i := width; i < len(data); i += width {
		c := slices.Compare(data[i-width:i], data[i:i+width])
		if c > 0 {
			sorted = false
			break
		}
		dups = dups || c == 0
	}
	if sorted && !dups {
		return data
	}
	if width == 1 {
		if !sorted {
			slices.Sort(data)
		}
		return compactInts(data)
	}
	if !sorted {
		rt.sorter = rowSorter{data: data, width: width}
		sort.Sort(&rt.sorter)
		rt.sorter.data = nil // a block that later grows must not stay pinned here
	}
	out := width // elements kept
	for i := width; i < len(data); i += width {
		row := data[i : i+width]
		if slices.Compare(row, data[out-width:out]) == 0 {
			continue
		}
		copy(data[out:out+width], row)
		out += width
	}
	return data[:out]
}

func compactInts(ids []int64) []int64 {
	out := ids[:0]
	for i, id := range ids {
		if i > 0 && id == out[len(out)-1] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// projectInPlace compacts each row down to the columns in keepIdx (indices
// into the pre-projection layout, strictly increasing not required). Safe
// in place because the write cursor never passes the read cursor.
func (r *brel) projectInPlace(keepIdx []int) {
	w := r.width
	nw := len(keepIdx)
	n := r.rows()
	out := 0
	for i := 0; i < n; i++ {
		row := r.data[i*w : i*w+w]
		for _, c := range keepIdx {
			r.data[out] = row[c]
			out++
		}
	}
	r.data = r.data[:n*nw]
	r.width = nw
}

// boundRel is the block-based output of a bound (index-nested-loop) probe:
// sub-rows grouped by the join id they were probed with. Groups are
// delimited by offs (group g spans rows offs[g]..offs[g+1]); jids[g] is the
// id the group belongs to. A jid with no matching group simply has no
// entry — the INL join skips it, exactly as the old map-of-slices did.
type boundRel struct {
	sub  brel    // all sub-rows, group-contiguous
	jids []int64 // one per group
	offs []int32 // len == len(jids)+1; offs[g] is group g's first row
}

func (b *boundRel) reset(width int) {
	b.sub.reset(width)
	b.jids = b.jids[:0]
	b.offs = b.offs[:0]
}

// beginGroup opens a new group for jid; subsequent newRow calls extend it.
func (b *boundRel) beginGroup(jid int64) {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0)
	}
	b.jids = append(b.jids, jid)
	b.offs = append(b.offs, int32(b.sub.rows()))
}

func (b *boundRel) newRow() []int64 {
	row := b.sub.newRow()
	b.offs[len(b.offs)-1] = int32(b.sub.rows())
	return row
}

// bindRows is brel.bindRows into the open group, for a pattern anchored at
// the group's head: position 0 is the head itself and adds no column, and
// position p > 0 binds ids[p-shift].
func (b *boundRel) bindRows(asn []int, k int, ids []int64, shift int) {
	for ; len(asn) > 0; asn = asn[k:] {
		row := b.newRow()
		for i, p := range asn[1:k] {
			row[i] = ids[p-shift]
		}
	}
}

// group returns the sub-row range of group g.
func (b *boundRel) group(g int) (start, end int) {
	return int(b.offs[g]), int(b.offs[g+1])
}

// hashTab is an arena-backed multi-map from int64 keys to build-side row
// indices: open addressing for the key slots, with same-key rows chained
// through next. One table lives on the Runtime and is reused by every
// hash join, semi-join key set and INL group lookup (their uses never
// overlap — each operator builds, probes and abandons it within its own
// body, after its children have completed).
type hashTab struct {
	mask  int
	keys  []int64
	heads []int32 // row index + 1; 0 = empty slot
	next  []int32 // per build row: next row with the same key + 1
}

// init sizes the table for n build rows (load factor <= 0.5) and clears it.
func (h *hashTab) init(n int) {
	size := 4
	for size < 2*n {
		size *= 2
	}
	if cap(h.keys) < size {
		h.keys = make([]int64, size)
		h.heads = make([]int32, size)
	}
	h.keys = h.keys[:size]
	h.heads = h.heads[:size]
	for i := range h.heads {
		h.heads[i] = 0
	}
	if cap(h.next) < n {
		h.next = make([]int32, n)
	}
	h.next = h.next[:n]
	h.mask = size - 1
}

func (h *hashTab) slot(key int64) int {
	// Fibonacci hashing spreads sequential ids well.
	x := uint64(key) * 0x9E3779B97F4A7C15
	i := int(x>>33) & h.mask
	for h.heads[i] != 0 && h.keys[i] != key {
		i = (i + 1) & h.mask
	}
	return i
}

// insert adds build row `row` under key, chaining duplicates.
func (h *hashTab) insert(key int64, row int32) {
	i := h.slot(key)
	h.next[row] = h.heads[i]
	h.keys[i] = key
	h.heads[i] = row + 1
}

// first returns the head of key's row chain (+1), or 0 when absent. Walk
// the chain with next[row-1].
func (h *hashTab) first(key int64) int32 {
	i := h.slot(key)
	if h.heads[i] == 0 {
		return 0
	}
	return h.heads[i]
}

// keySet loads the table with ids as a plain key set, for contains.
func (h *hashTab) keySet(ids []int64) {
	h.init(len(ids))
	for i, id := range ids {
		h.insert(id, int32(i))
	}
}

// contains reports key membership (semi-join key-set use).
func (h *hashTab) contains(key int64) bool {
	return h.first(key) != 0
}
