// Snapshot-isolated reads: the engine publishes its entire queryable state
// — store, dictionaries, statistics, index handles and the per-pattern plan
// cache — as one immutable Snapshot behind an atomic pointer. Queries load
// the pointer once, pin the snapshot for their whole lifetime, and never
// take a database lock: a concurrent writer prepares the *next* snapshot
// off to the side (copy-on-write at the catalog/document/index-handle
// granularity, and per-page COW inside the B+-trees) and makes it visible
// with a single pointer swap. Old snapshots retire when their last reader
// unpins them and the garbage collector reclaims the structs; the device
// pages only they referenced go back onto the on-disk free list
// (storage.Meta.FreeHead) through the engine's deferred-free queue, which
// waits for every snapshot that could still read a page to drain (see
// DB.reclaimRetired).
package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Snapshot is one immutable version of the database. Everything reachable
// from it is frozen — except the statistics of a never-analysed version,
// collected lazily (guarded by the build-once latch below), and the plan
// cache (its own mutex), both monotonic caches whose content is derived
// purely from the frozen state.
type Snapshot struct {
	// seq is the snapshot's position in the version chain (0 = the state
	// at Open).
	seq uint64

	store *xmldb.Store
	dict  *pathdict.Dict      // shared across versions: append-only, latched
	ptab  *pathdict.PathTable // shared across versions: append-only, latched

	env plan.Env

	// pins counts readers currently inside a query against this snapshot.
	// It is load-bearing: the engine's deferred-free queue only returns a
	// page to the device free list once every snapshot that could read it
	// shows zero pins after being superseded (see DB.pin/reclaimRetired).
	pins atomic.Int64

	// superseded is set (under writeMu, before the reclaim pass reads
	// pins) when a successor snapshot is published: a reader that pins
	// this snapshot and then observes superseded must unpin and retry on
	// the new current, because its pin may have arrived after a reclaim
	// pass already treated the snapshot as drained.
	superseded atomic.Bool

	// planMu guards the per-pattern plan cache. Each snapshot starts with
	// an empty cache: a new version means new statistics, which can change
	// every choice. The cache holds whole finalized plan *trees*, not just
	// strategy choices: a tree is immutable after Build and carries a pool
	// of reusable execution runtimes, so a cache hit re-executes without
	// re-planning, re-compiling probe patterns, or allocating intermediate
	// blocks. Safe to share across queries of one snapshot because the
	// dictionary is append-only (compiled designators stay valid) and all
	// per-run state lives in the runtime, never the tree.
	planMu    sync.RWMutex
	planCache map[string]*plan.Tree

	// statsMu serialises the lazy statistics collection of a never-analysed
	// version so concurrent first-queries collect exactly once; statsReady
	// lets the steady state skip the latch with one atomic load (the
	// statsReady store is ordered after the env.Stats write, so a reader
	// observing true also observes the built stats).
	statsMu    sync.Mutex
	statsReady atomic.Bool
}

// Seq returns the snapshot's version number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Store returns the snapshot's (frozen) XML store.
func (s *Snapshot) Store() *xmldb.Store { return s.store }

// Env returns the snapshot's planner environment.
func (s *Snapshot) Env() *plan.Env { return &s.env }

// queryEnv returns the environment a query plans and executes with. A
// version derived from an analysed one carries its own statistics from the
// moment it is published (see Tx.successor); only a never-analysed store
// collects them here, exactly once, holding the stats latch across the
// collection so concurrent first-queries collect once and the rest wait.
// Because the snapshot's store is immutable, the statistics describe
// exactly the state every reader of this snapshot sees — a query can never
// plan against statistics from a different version than the indices it
// probes.
func (s *Snapshot) queryEnv() *plan.Env {
	if !s.statsReady.Load() {
		s.statsMu.Lock()
		if s.env.Stats == nil {
			s.env.Stats = stats.Collect(s.store, s.dict)
		}
		s.statsMu.Unlock()
		s.statsReady.Store(true)
	}
	return &s.env
}

// planFor resolves the plan tree a read executes. A pinned strategy's tree
// is built for the call. Under Auto the cheapest tree comes from the
// per-pattern plan cache, planned on a miss; the cache key is the pattern's
// canonical rendering, so syntactically different but equivalent queries
// share an entry, and cacheHit reports whether planning was skipped.
func (s *Snapshot) planFor(env *plan.Env, pat *xpath.Pattern, opts ReadOpts) (tree *plan.Tree, cacheHit bool, err error) {
	if opts.Planner == Pinned {
		t, err := plan.Build(env, opts.Strategy, pat)
		return t, false, err
	}
	key := pat.String()
	s.planMu.RLock()
	cached, ok := s.planCache[key]
	s.planMu.RUnlock()
	if ok {
		return cached, true, nil
	}
	t, _, err := plan.Choose(env, pat)
	if err != nil {
		return nil, false, err
	}
	s.planMu.Lock()
	if s.planCache == nil {
		s.planCache = map[string]*plan.Tree{}
	}
	if prior, ok := s.planCache[key]; ok {
		// A concurrent miss planned the same pattern; keep the first tree
		// so every query shares one runtime pool.
		t = prior
	} else {
		s.planCache[key] = t
	}
	s.planMu.Unlock()
	return t, false, nil
}

// clone returns a mutable successor of the snapshot sharing every
// component, statistics included; the writer swaps in copied or rebuilt
// components before publishing it (statistics it is about to change go
// through stats.Successor first). The plan cache starts empty: a new
// version means new statistics, which can change every choice. The env
// copy happens under the stats latch: a concurrent reader may be
// installing lazily collected statistics into this snapshot at the same
// moment.
func (s *Snapshot) clone() *Snapshot {
	next := &Snapshot{
		seq:   s.seq + 1,
		store: s.store,
		dict:  s.dict,
		ptab:  s.ptab,
	}
	s.statsMu.Lock()
	next.env = s.env
	s.statsMu.Unlock()
	next.statsReady.Store(next.env.Stats != nil)
	return next
}

// successorStats gives the snapshot a private copy-on-write successor of
// the statistics it shares with its base, for a writer about to change the
// store; a never-analysed version keeps none.
func (s *Snapshot) successorStats() {
	if s.env.Stats != nil {
		s.env.Stats = s.env.Stats.Successor()
	}
}

// cowIndices replaces the incrementally maintained indices (ROOTPATHS /
// DATAPATHS) with copy-on-write clones whose mutations cannot touch pages
// the predecessor references (frontier = device page count when the
// predecessor froze), and drops the index structures that do not support
// incremental maintenance.
func (s *Snapshot) cowIndices(frontier storage.PageID) {
	kept := s.maintained()
	for k := index.Kind(0); k < index.NumKinds; k++ {
		s.env.Install(k, nil)
	}
	for _, m := range kept {
		s.env.Install(m.Kind(), m.CloneCOW(frontier))
	}
}

// maintained returns the snapshot's incrementally maintained structures.
func (s *Snapshot) maintained() []index.Maintained {
	var out []index.Maintained
	for _, st := range s.env.Structures() {
		if m, ok := st.(index.Maintained); ok {
			out = append(out, m)
		}
	}
	return out
}
