// Package stats collects the exact cardinality statistics the planner uses
// to order branches, choose between index-nested-loop and merge joins, and
// cost rival access paths. The paper runs RUNSTATS-style collection before
// querying ("we collected detailed statistics on all relations and indices
// before running our queries"); here the statistics are exact
// per-rooted-path and per-(rooted-path, value) match counts.
package stats

import (
	"sync"

	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/xmldb"
)

// Stats holds match counts over the rooted schema paths of a store. After
// Collect returns, the count maps are immutable, so concurrent readers need
// no synchronisation; only the estimate memo caches are mutated afterwards
// and they are guarded by a read-write latch (reads vastly outnumber writes
// once the workload's branch patterns have been seen).
type Stats struct {
	ptab      *pathdict.PathTable // rooted paths
	pathCount map[pathdict.PathID]int64
	valCount  map[valKey]int64
	byLast    map[pathdict.Sym][]pathdict.PathID // rooted paths by final designator

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
	s := &Stats{
		ptab:       pathdict.NewPathTable(),
		pathCount:  map[pathdict.PathID]int64{},
		valCount:   map[valKey]int64{},
		byLast:     map[pathdict.Sym][]pathdict.PathID{},
		patIDs:     map[string]patRef{},
		estCache:   map[estKey]int64{},
		matchCache: map[patRef]int64{},
	}
	pathrel.Emit(store, dict, nil, false, func(r pathrel.Row) {
		id := s.ptab.Intern(r.Path)
		if r.HasValue {
			s.valCount[valKey{id, r.Value}]++
		} else {
			s.pathCount[id]++
		}
	})
	s.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		last := p[len(p)-1]
		s.byLast[last] = append(s.byLast[last], id)
	})
	return s
}

// RootedPaths returns the registry of distinct rooted schema paths; the
// planner uses it to expand // patterns against the schema (DataGuide-style
// summary traversal).
func (s *Stats) RootedPaths() *pathdict.PathTable { return s.ptab }

// PathCount returns the number of instances of an exact rooted path.
func (s *Stats) PathCount(id pathdict.PathID) int64 { return s.pathCount[id] }

// ValueCount returns the number of instances of an exact rooted path whose
// end node carries the given leaf value.
func (s *Stats) ValueCount(id pathdict.PathID, value string) int64 {
	return s.valCount[valKey{id, value}]
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
	for _, id := range s.byLast[pat[len(pat)-1].Sym] {
		if !pathdict.MatchPath(pat, s.ptab.Path(id)) {
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
	for _, id := range s.byLast[pat[len(pat)-1].Sym] {
		if pathdict.MatchPath(pat, s.ptab.Path(id)) {
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
	s.ptab.All(func(_ pathdict.PathID, p pathdict.Path) {
		if pathdict.MatchPath(pat, p) {
			out = append(out, p)
		}
	})
	return out
}
