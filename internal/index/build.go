package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/containment"
	"repro/internal/storage"
)

// A member is built in two steps. Its prepare (the family row's prepare
// function) emits the member's rows from the site's store, encodes and
// sorts them; it reads the store and the dictionary and writes nothing
// shared, so prepares can run side by side. Its load bulk-loads the sorted
// rows into the site's pool and registers new schema paths in the site's
// path table: the step that takes page ids and path ids, so loads run one
// at a time, in the order a serial build runs them, and every id is the
// one a serial build gives.

// load is the second step of a member's build: it bulk-loads what the
// prepare made through ld and returns the built member.
type load func(ld *loader) (any, error)

// loader bulk-loads the trees of one build and remembers where their pages
// are, so that a failed build can give every page back.
type loader struct {
	pool  *storage.Pool
	walks []func(func(storage.PageID) error) error
}

// bulk builds one tree from entries already sorted by key (and, within a
// run of equal keys, by the tree's value order).
func (ld *loader) bulk(name string, entries []btree.Entry) (*btree.Tree, error) {
	t, err := btree.BulkLoad(ld.pool, name, entries)
	if err == nil {
		ld.keep(t.Walk)
	}
	return t, err
}

// keep records the page walk of a structure loaded by other means.
func (ld *loader) keep(walk func(func(storage.PageID) error) error) {
	ld.walks = append(ld.walks, walk)
}

// free gives back every page of what was loaded; each was allocated since
// the last seal, so it is reusable at once.
func (ld *loader) free() {
	for _, walk := range ld.walks {
		ld.pool.FreeWalk(walk)
	}
	ld.walks = nil
}

// Build constructs member k at the site — prepare, then load: a Structure,
// or for the unpersisted containment index a *containment.Index.
func Build(k Kind, s Site) (any, error) {
	built, err := BuildKinds(s, k)
	if err != nil {
		return nil, err
	}
	return built[0], nil
}

// BuildKinds constructs the given members at the site and returns them in
// the same order, page for page and id for id what Build on each in turn
// would. The prepares run on up to GOMAXPROCS goroutines; the loads run on
// the caller's, one at a time in the order of kinds, each as soon as its
// own prepare and the previous load are done, so the early loads overlap
// the later prepares. Under PathIDKeys the ROOTPATHS/DATAPATHS keys embed
// path ids, so such a prepare interns into the site's path table itself
// and waits for the load of the path index before it.
//
// The site's dictionary must already hold every label of the store
// (stats.Collect interns them all): a label first met by a prepare would
// get its symbol in whatever order the prepares ran. On an error no
// further prepare starts; BuildKinds waits for the running ones and frees
// every page its loads took before it returns.
func BuildKinds(s Site, kinds ...Kind) ([]any, error) {
	for _, k := range kinds {
		if k < 0 || k >= NumKinds {
			return nil, fmt.Errorf("index: unknown index kind %d", k)
		}
	}
	type job struct {
		kind     Kind
		after    int // the job whose load this prepare waits for; -1 for none
		load     load
		err      error
		prepared chan struct{}
		loaded   chan struct{}
	}
	jobs := make([]job, len(kinds))
	lastInterning := -1
	for i, k := range kinds {
		jobs[i] = job{kind: k, after: -1, prepared: make(chan struct{}), loaded: make(chan struct{})}
		if s.Opts.PathIDKeys && family[k].interns {
			jobs[i].after, lastInterning = lastInterning, i
		}
	}

	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := &jobs[i]
				if j.after >= 0 {
					<-jobs[j.after].loaded
				}
				if !stop.Load() {
					j.load, j.err = family[j.kind].prepare(s)
				}
				close(j.prepared)
			}
		}()
	}

	ld := loader{pool: s.Pool}
	built := make([]any, len(jobs))
	var err error
	for i := range jobs {
		j := &jobs[i]
		<-j.prepared
		if err = j.err; err == nil {
			built[i], err = j.load(&ld)
			j.load = nil // its rows are garbage now
		}
		if err != nil {
			err = fmt.Errorf("building %v: %w", j.kind, err)
			stop.Store(true)
			for k := i; k < len(jobs); k++ {
				close(jobs[k].loaded) // no prepare waits for a load that will not come
			}
			break
		}
		close(j.loaded)
	}
	wg.Wait()
	if err != nil {
		ld.free()
		return nil, err
	}
	return built, nil
}

// arenaBlock is the size of an arena's blocks.
const arenaBlock = 64 << 10

// arena carves the key and value bytes of one prepare's rows out of a few
// large blocks instead of allocating each row's bytes on its own.
type arena struct{ block []byte }

// copy returns a copy of b carved from the arena.
func (a *arena) copy(b []byte) []byte {
	if len(b) > cap(a.block)-len(a.block) {
		a.block = make([]byte, 0, max(arenaBlock, len(b)))
	}
	n := len(a.block)
	a.block = append(a.block, b...)
	return a.block[n:len(a.block):len(a.block)]
}

// group puts entries into one run per bucket below n, bucket(Key) — in
// place, by counting — and returns the n runs in bucket order. Within a
// run the entries come in no particular order. Each key's bucket is read
// once, into a side table of 4 bytes an entry that moves with the entries
// (so n must fit in 31 bits): the walk that swaps every entry home then
// reads no key.
func group(entries []btree.Entry, n int, bucket func(key []byte) int) [][]btree.Entry {
	leads := make([]int32, len(entries))
	start := make([]int, n+1)
	for i, e := range entries {
		b := bucket(e.Key)
		leads[i] = int32(b)
		start[b+1]++
	}
	for b := 0; b < n; b++ {
		start[b+1] += start[b]
	}
	next := slices.Clone(start[:n])
	for b := 0; b < n; b++ {
		for next[b] < start[b+1] {
			i := next[b]
			to := int(leads[i])
			if to != b {
				j := next[to]
				entries[i], entries[j] = entries[j], entries[i]
				leads[i], leads[j] = leads[j], leads[i]
			}
			next[to]++
		}
	}
	runs := make([][]btree.Entry, n)
	for b := range runs {
		runs[b] = entries[start[b]:start[b+1]:start[b+1]]
	}
	return runs
}

// sortRuns sorts every run of two or more entries with sort, on up to
// GOMAXPROCS goroutines, the caller's among them, largest run first so that
// no long sort starts last. The runs must not overlap.
func sortRuns(runs [][]btree.Entry, sort func([]btree.Entry)) {
	var order []int
	for i, r := range runs {
		if len(r) > 1 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return len(runs[b]) - len(runs[a]) })
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(order); i = int(next.Add(1) - 1) {
			sort(runs[order[i]])
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(order)) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// byPathID groups entries, every key led by the 4-byte id of its path in
// a table of n paths, into one run per path and sorts each run by key,
// once its keys are stripped of the id and of trim more trailing bytes.
// Keys must be distinct; every path id has rows (the table registered the
// paths of the rows).
func byPathID(entries []btree.Entry, n, trim int) [][]btree.Entry {
	runs := group(entries, n, func(key []byte) int { return int(binary.BigEndian.Uint32(key)) })
	for i := range entries {
		entries[i].Key = entries[i].Key[4:]
	}
	sortRuns(runs, sortByKey)
	for i := range entries {
		entries[i].Key = entries[i].Key[:len(entries[i].Key)-trim]
	}
	return runs
}

// sortByKey sorts entries whose keys are distinct, or whose entries with
// equal keys are equal, by key.
func sortByKey(entries []btree.Entry) { sortEntries(entries, 0, nil) }

// sortEntries sorts entries by Key[skip:] and, among equal keys, by the
// id lists decode reads from their values, numerically and
// lexicographically (a proper prefix first): the order idOrder gives the
// encoded lists. With a nil decode, entries with equal keys must be equal.
//
// It is a multikey quicksort (Bentley and Sedgewick) whose characters are
// 8-byte key words: it splits the entries three ways on the word at one
// depth, sorts the outer two parts at that depth and the middle one, whose
// keys share the word, one word deeper. A key so costs about its
// distinguishing prefix, and the long prefixes keys share are passed over
// a word at a time instead of compared again and again. Parts of under 16
// entries, and parts left after 2·log₂ n splits that did not go a word
// deeper (the quadratic case of every quicksort), are sorted by comparison.
func sortEntries(entries []btree.Entry, skip int, decode func(dst []int64, val []byte) []int64) {
	var ties *byIDs
	if decode != nil {
		ties = tieScratch.Get().(*byIDs)
		ties.decode = decode
		defer tieScratch.Put(ties)
	}
	sortFrom(entries, skip, 2*bits.Len(uint(len(entries))), ties)
}

func sortFrom(a []btree.Entry, d, limit int, ties *byIDs) {
	for len(a) > 1 {
		if len(a) < 16 || limit == 0 {
			slices.SortFunc(a, func(x, y btree.Entry) int { return bytes.Compare(x.Key[d:], y.Key[d:]) })
			if ties != nil {
				for i := 0; i < len(a); {
					j := i + 1
					for j < len(a) && bytes.Equal(a[i].Key[d:], a[j].Key[d:]) {
						j++
					}
					ties.sort(a[i:j])
					i = j
				}
			}
			return
		}
		p := median(wordAt(a[0].Key, d), wordAt(a[len(a)/2].Key, d), wordAt(a[len(a)-1].Key, d))
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch c := wordAt(a[i].Key, d).cmp(p); {
			case c < 0:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case c > 0:
				gt--
				a[gt], a[i] = a[i], a[gt]
			default:
				i++
			}
		}
		sortFrom(a[:lt], d, limit-1, ties)
		sortFrom(a[gt:], d, limit-1, ties)
		a = a[lt:gt]
		if p.n < 8 {
			// Every key of the middle part ends inside the word: the keys
			// are equal.
			if ties != nil {
				ties.sort(a)
			}
			return
		}
		d += 8
	}
}

// byIDs puts entries with equal keys in the order of their id lists. It
// decodes each value once, into a table it keeps for the next call, and
// sorts positions over the table, so no comparison decodes a varint.
type byIDs struct {
	decode func(dst []int64, val []byte) []int64
	ids    []int64       // the entries' lists, one after another
	bounds []int         // entry i's list is ids[bounds[i]:bounds[i+1]]
	perm   []int32       // position i of the sorted entries takes entry perm[i]
	was    []btree.Entry // the entries in their order before the sort
}

var tieScratch = sync.Pool{New: func() any { return new(byIDs) }}

func (t *byIDs) sort(a []btree.Entry) {
	if len(a) < 2 {
		return
	}
	t.ids, t.bounds, t.perm = t.ids[:0], append(t.bounds[:0], 0), t.perm[:0]
	for i, e := range a {
		// Room for the list first: a decode grows its dst to fit only.
		t.ids = t.decode(slices.Grow(t.ids, len(e.Val)), e.Val)
		t.bounds = append(t.bounds, len(t.ids))
		t.perm = append(t.perm, int32(i))
	}
	list := func(i int32) []int64 { return t.ids[t.bounds[i]:t.bounds[i+1]] }
	slices.SortFunc(t.perm, func(x, y int32) int { return slices.Compare(list(x), list(y)) })
	t.was = append(t.was[:0], a...)
	for k, src := range t.perm {
		a[k] = t.was[src]
	}
	clear(t.was) // hold no key past the sort
}

// word is the up to 8 bytes of a key from a depth on, big-endian and
// zero-padded, and how many of them the key has: words compare as the
// keys' bytes from that depth do, over those 8 bytes.
type word struct {
	w uint64
	n int
}

// wordAt is the word of k at depth d ≤ len(k).
func wordAt(k []byte, d int) word {
	if len(k)-d >= 8 {
		return word{binary.BigEndian.Uint64(k[d:]), 8}
	}
	var w uint64
	for _, c := range k[d:] {
		w = w<<8 | uint64(c)
	}
	n := len(k) - d
	return word{w << (8 * (8 - n)), n}
}

func (x word) cmp(y word) int {
	if c := cmp.Compare(x.w, y.w); c != 0 {
		return c
	}
	return x.n - y.n
}

// median is the middle one of three words.
func median(a, b, c word) word {
	if a.cmp(b) > 0 {
		a, b = b, a
	}
	if b.cmp(c) <= 0 {
		return b
	}
	if a.cmp(c) > 0 {
		return a
	}
	return c
}

// prepareContainment prepares the structural-join extension's element
// list (containment.Prepare).
func prepareContainment(s Site) (load, error) {
	p := containment.Prepare(s.Store, s.Dict)
	return func(ld *loader) (any, error) {
		ix, err := p.Load(ld.pool)
		if err != nil {
			return nil, err
		}
		ld.keep(ix.WalkPages)
		return ix, nil
	}, nil
}
