package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// byPathID groups entries, every key led by the 4-byte id of its path in
// a table of n paths, into one run per path — in place, by counting — and
// sorts each run by key, once its keys are stripped of the id and of trim
// more trailing bytes. Keys must be distinct; every path id has rows (the
// table registered the paths of the rows).
func byPathID(entries []btree.Entry, n, trim int) [][]btree.Entry {
	pathOf := func(e btree.Entry) int { return int(binary.BigEndian.Uint32(e.Key)) }
	start := make([]int, n+1)
	for _, e := range entries {
		start[pathOf(e)+1]++
	}
	for id := 0; id < n; id++ {
		start[id+1] += start[id]
	}
	next := slices.Clone(start[:n])
	for id := 0; id < n; id++ {
		for next[id] < start[id+1] {
			i := next[id]
			to := pathOf(entries[i])
			if to != id {
				entries[i], entries[next[to]] = entries[next[to]], entries[i]
			}
			next[to]++
		}
	}
	per := make([][]btree.Entry, n)
	for id := range per {
		run := entries[start[id]:start[id+1]:start[id+1]]
		for i := range run {
			run[i].Key = run[i].Key[4:]
		}
		sortByKey(run)
		for i := range run {
			run[i].Key = run[i].Key[:len(run[i].Key)-trim]
		}
		per[id] = run
	}
	return per
}

// sortByKey sorts entries whose keys are distinct, or whose entries with
// equal keys are equal, by key.
func sortByKey(entries []btree.Entry) {
	slices.SortFunc(entries, func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) })
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
