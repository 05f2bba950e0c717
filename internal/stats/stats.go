// Package stats collects the exact cardinality statistics the planner uses
// to order branches, choose between index-nested-loop and merge joins, and
// cost rival access paths. The paper runs RUNSTATS-style collection before
// querying ("we collected detailed statistics on all relations and indices
// before running our queries"); here the statistics are exact
// per-rooted-path and per-(rooted-path, value) match counts.
package stats

import (
	"sync"

	"repro/internal/cowmap"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/xmldb"
)

// Stats holds match counts over the rooted schema paths of one version of
// a store. Once the version is published the counts are immutable, so
// concurrent readers need no synchronisation; only the estimate memo
// caches are mutated afterwards and they are guarded by a read-write latch
// (reads vastly outnumber writes once the workload's branch patterns have
// been seen).
//
// Collect derives the counts from scratch. A writer's version instead
// takes a Successor of its base's statistics and Applies the rows of each
// subtree it attaches or detaches: the counts are copy-on-write maps
// (cowmap.Map) sharing the base's, so the cost follows the change.
type Stats struct {
	reg       *registry
	pathCount cowmap.Map[pathdict.PathID, int64]
	valCount  cowmap.Map[valKey, int64]

	mu sync.RWMutex
	// patIDs interns compiled linear patterns into dense references so the
	// memo caches can use small comparable struct keys; the lookup goes
	// through a map[string] index expression over a stack buffer, so the
	// steady state performs no allocation per estimate.
	patIDs     map[string]patRef
	nextPat    patRef
	estCache   map[estKey]int64
	matchCache map[patRef]int64
}

// registry holds every rooted path any version derived from one Collect
// has counted, shared by all of them: append-only, so a path id means the
// same path in every version. A path is part of a version's rooted-path
// set only while its count there is positive.
type registry struct {
	ptab *pathdict.PathTable

	mu     sync.RWMutex
	byLast map[pathdict.Sym][]pathdict.PathID // paths by final designator
}

// intern returns the id of p, registering it (and indexing it by its
// final designator) if new.
func (r *registry) intern(p pathdict.Path) pathdict.PathID {
	if id, ok := r.ptab.Lookup(p); ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.ptab.Len()
	id := r.ptab.Intern(p)
	if int(id) == n {
		last := p[len(p)-1]
		r.byLast[last] = append(r.byLast[last], id)
	}
	return id
}

// endingWith returns the registered paths whose final designator is sym.
func (r *registry) endingWith(sym pathdict.Sym) []pathdict.PathID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byLast[sym]
}

type valKey struct {
	path  pathdict.PathID
	value string
}

// patRef is a dense reference to an interned compiled pattern.
type patRef int32

// estKey is the comparable memo key for EstimateBranch: the interned
// pattern plus the value restriction.
type estKey struct {
	pat      patRef
	hasValue bool
	value    string
}

// Collect walks the store once and builds the statistics. Labels are
// interned into dict.
func Collect(store *xmldb.Store, dict *pathdict.Dict) *Stats {
	ptab := pathdict.NewPathTable()
	pathCount := map[pathdict.PathID]int64{}
	valCount := map[valKey]int64{}
	pathrel.Emit(store, dict, nil, false, func(r pathrel.Row) {
		id := ptab.Intern(r.Path)
		if r.HasValue {
			valCount[valKey{id, r.Value}]++
		} else {
			pathCount[id]++
		}
	})
	return newStats(ptab, pathCount, valCount)
}

// newStats wraps counts over the paths of ptab, which it indexes by final
// designator.
func newStats(ptab *pathdict.PathTable, pathCount map[pathdict.PathID]int64, valCount map[valKey]int64) *Stats {
	reg := &registry{ptab: ptab, byLast: map[pathdict.Sym][]pathdict.PathID{}}
	ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		last := p[len(p)-1]
		reg.byLast[last] = append(reg.byLast[last], id)
	})
	s := &Stats{reg: reg, pathCount: cowmap.From(pathCount), valCount: cowmap.From(valCount)}
	s.resetMemo()
	return s
}

// NoPath is the rooted path of the virtual root: the parent path of a
// document root.
const NoPath pathdict.PathID = -1

// Collector builds the statistics Collect would, from nodes handed over
// one at a time with no store behind them — the way a node table is read,
// where every node follows its parent. A node's rooted path is its
// parent's plus its own label, so the caller keeps each node's path (the
// one Node returns) until its children have been counted.
type Collector struct {
	ptab      *pathdict.PathTable
	pathCount []int64 // by path id
	valCount  map[valKey]int64
	child     map[uint64]pathdict.PathID // parent path<<16 | sym → path
	buf       pathdict.Path
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		ptab:     pathdict.NewPathTable(),
		valCount: map[valKey]int64{},
		child:    map[uint64]pathdict.PathID{},
	}
}

// Node counts one node labelled sym whose parent's rooted path is parent
// (NoPath for a document root), and returns the node's own rooted path.
// value is only read during the call.
func (c *Collector) Node(parent pathdict.PathID, sym pathdict.Sym, hasValue bool, value []byte) pathdict.PathID {
	k := uint64(parent+1)<<16 | uint64(sym)
	id, ok := c.child[k]
	if !ok {
		c.buf = c.buf[:0]
		if parent != NoPath {
			c.buf = append(c.buf, c.ptab.Path(parent)...)
		}
		c.buf = append(c.buf, sym)
		// A new (parent path, symbol) pair is a new path: the next id.
		id = c.ptab.Intern(c.buf)
		c.child[k] = id
		c.pathCount = append(c.pathCount, 0)
	}
	c.pathCount[id]++
	if hasValue {
		c.valCount[valKey{id, string(value)}]++
	}
	return id
}

// Stats returns the statistics of every node counted; the collector must
// not be used afterwards.
func (c *Collector) Stats() *Stats {
	pathCount := make(map[pathdict.PathID]int64, len(c.pathCount))
	for id, n := range c.pathCount {
		pathCount[pathdict.PathID(id)] = n
	}
	return newStats(c.ptab, pathCount, c.valCount)
}

// Successor returns statistics for a new version of the store that starts
// out equal to s: the counts are shared copy-on-write, the memo caches
// start empty. s must not be changed afterwards.
func (s *Stats) Successor() *Stats {
	next := &Stats{reg: s.reg, pathCount: s.pathCount.Clone(), valCount: s.valCount.Clone()}
	next.resetMemo()
	return next
}

// Apply counts the rooted-path rows of the subtree at sub (sign +1) or
// discounts them (sign -1). sub must be attached to store: call it after
// attaching a subtree, and before detaching one. Only a version no reader
// can see yet may be changed.
func (s *Stats) Apply(store *xmldb.Store, dict *pathdict.Dict, sub *xmldb.Node, sign int64) {
	pathrel.Emit(store, dict, sub, false, func(r pathrel.Row) {
		id := s.reg.intern(r.Path)
		if r.HasValue {
			k := valKey{id, r.Value}
			s.valCount.Set(k, s.valCount.Get(k)+sign)
		} else {
			s.pathCount.Set(id, s.pathCount.Get(id)+sign)
		}
	})
	s.resetMemo()
}

func (s *Stats) resetMemo() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.patIDs = map[string]patRef{}
	s.nextPat = 0
	s.estCache = map[estKey]int64{}
	s.matchCache = map[patRef]int64{}
}

// RootedPaths is the set of distinct rooted schema paths with at least one
// instance; the planner uses it to expand // patterns against the schema
// (DataGuide-style summary traversal).
type RootedPaths struct{ s *Stats }

// RootedPaths returns the version's rooted-path set.
func (s *Stats) RootedPaths() RootedPaths { return RootedPaths{s} }

// Len returns the number of rooted paths (the paper reports 235 for DBLP
// and 902 for XMark).
func (r RootedPaths) Len() int { return r.s.pathCount.Len() }

// Lookup returns the id of path p, if it is in the set.
func (r RootedPaths) Lookup(p pathdict.Path) (pathdict.PathID, bool) {
	id, ok := r.s.reg.ptab.Lookup(p)
	return id, ok && r.s.pathCount.Get(id) > 0
}

// All calls fn for every path in the set, in id order.
func (r RootedPaths) All(fn func(pathdict.PathID, pathdict.Path)) {
	r.s.reg.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		if r.s.pathCount.Get(id) > 0 {
			fn(id, p)
		}
	})
}

// NodeCount returns the number of nodes the statistics describe: every
// node has one rooted path, so it is the sum of the path counts.
func (s *Stats) NodeCount() int64 {
	var n int64
	s.pathCount.Range(func(_ pathdict.PathID, c int64) { n += c })
	return n
}

// PathCount returns the number of instances of an exact rooted path.
func (s *Stats) PathCount(id pathdict.PathID) int64 { return s.pathCount.Get(id) }

// ValueCount returns the number of instances of an exact rooted path whose
// end node carries the given leaf value.
func (s *Stats) ValueCount(id pathdict.PathID, value string) int64 {
	return s.valCount.Get(valKey{id, value})
}

// Values calls fn for every (rooted path, leaf value) pair with a positive
// count, in no particular order.
func (s *Stats) Values(fn func(p pathdict.Path, value string, n int64)) {
	s.valCount.Range(func(k valKey, n int64) { fn(s.reg.ptab.Path(k.path), k.value, n) })
}

// patRefFor interns the compiled pattern, returning its dense reference.
// The hot path — a pattern already seen — performs no allocation: the
// encoded key lives in a stack buffer and the map lookup uses the
// allocation-free string(b) index form.
func (s *Stats) patRefFor(pat []pathdict.PStep) patRef {
	var arr [96]byte
	b := arr[:0]
	for _, st := range pat {
		d := byte(0)
		if st.Desc {
			d = 1
		}
		b = append(b, d, byte(st.Sym>>8), byte(st.Sym))
	}
	s.mu.RLock()
	id, ok := s.patIDs[string(b)]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.patIDs[string(b)]; ok {
		return id
	}
	id = s.nextPat
	s.nextPat++
	s.patIDs[string(b)] = id
	return id
}

// EstimateBranch returns the exact number of index rows a FreeIndex probe
// for the given linear pattern would visit: the sum of (value-restricted)
// counts over every rooted path matching the pattern. Matching is anchored
// at the path end, so only paths ending with the pattern's last designator
// are examined; results are memoised (the paper excludes optimization time
// from its measurements, so estimation must stay off the critical path).
func (s *Stats) EstimateBranch(pat []pathdict.PStep, hasValue bool, value string) int64 {
	key := estKey{pat: s.patRefFor(pat), hasValue: hasValue, value: value}
	s.mu.RLock()
	v, ok := s.estCache[key]
	s.mu.RUnlock()
	if ok {
		return v
	}

	var total int64
	for _, id := range s.reg.endingWith(pat[len(pat)-1].Sym) {
		if !pathdict.MatchPath(pat, s.reg.ptab.Path(id)) {
			continue
		}
		if hasValue {
			total += s.ValueCount(id, value)
		} else {
			total += s.PathCount(id)
		}
	}
	s.mu.Lock()
	s.estCache[key] = total
	s.mu.Unlock()
	return total
}

// CountMatchingRootedPaths returns the number of distinct rooted schema
// paths the pattern matches — the m of "a // costs m relation accesses"
// (paper Section 5.2.6), which the cost model charges to the per-path
// strategies (ASR, Join Index, XRel, DataGuide, Index Fabric). Memoised
// like EstimateBranch.
func (s *Stats) CountMatchingRootedPaths(pat []pathdict.PStep) int64 {
	if len(pat) == 0 {
		return 0
	}
	ref := s.patRefFor(pat)
	s.mu.RLock()
	v, ok := s.matchCache[ref]
	s.mu.RUnlock()
	if ok {
		return v
	}
	var total int64
	for _, id := range s.reg.endingWith(pat[len(pat)-1].Sym) {
		if s.PathCount(id) > 0 && pathdict.MatchPath(pat, s.reg.ptab.Path(id)) {
			total++
		}
	}
	s.mu.Lock()
	s.matchCache[ref] = total
	s.mu.Unlock()
	return total
}

// MatchingRootedPaths returns the rooted paths matching a linear pattern.
func (s *Stats) MatchingRootedPaths(pat []pathdict.PStep) []pathdict.Path {
	var out []pathdict.Path
	s.RootedPaths().All(func(_ pathdict.PathID, p pathdict.Path) {
		if pathdict.MatchPath(pat, p) {
			out = append(out, p)
		}
	})
	return out
}
