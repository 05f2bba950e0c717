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
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Snapshot is one immutable version of the database. Everything reachable
// from it is frozen — except the store of a version opened from a file,
// loaded on first need (guarded by a load-once latch below), and the plan
// cache (its own mutex): monotonic caches whose content is derived purely
// from the frozen state. A version that has any index has statistics:
// Build collects them with the indices, Open streams them from the node
// table, and every successor carries its base's forward. A version that
// was loaded and never built has neither, and every plan over it fails.
type Snapshot struct {
	// seq is the snapshot's position in the version chain (0 = the state
	// at Open; 1 = the commits Open replayed from the log, which it
	// publishes as one version).
	seq uint64

	// nextID is the version's id counter: no node of it has an id at or
	// above. It is what the catalog persists, so a commit needs no store.
	nextID int64

	// store is the version's XML store. A snapshot opened from a file (and
	// a clone of it made before it loaded) has none until something needs
	// it (DB.storeOf), which reads it from the node table once, holding
	// storeMu; storeReady is stored after store, so a reader observing true
	// also observes the store. Every other snapshot is created with its
	// store.
	store      *xmldb.Store
	storeMu    sync.Mutex
	storeReady atomic.Bool

	// env holds, besides the statistics and index handles, the version's
	// node table (env.Nodes): the store's paged form, nil until the first
	// commit after documents were bulk-loaded (AddDocument). It is set
	// before the snapshot is published, never after.
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

	// dropped are the structures the writer took out of this version
	// wholesale — replaced by a rebuild, or not maintainable across an
	// update. Their pages are retired when this version publishes
	// (DB.collectRetired); an aborted commit discards the list with the
	// version. Writer-owned until publish.
	dropped []pageWalker
}

// pageWalker is what a dropped structure must offer: its device pages.
type pageWalker interface {
	WalkPages(fn func(storage.PageID) error) error
}

// Seq returns the snapshot's version number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Store returns the snapshot's (frozen) XML store, or nil while a
// snapshot opened from a file has not loaded it (DB.Store loads it).
func (s *Snapshot) Store() *xmldb.Store {
	if !s.storeReady.Load() {
		return nil
	}
	return s.store
}

// setStore gives a snapshot no reader can see yet its store.
func (s *Snapshot) setStore(store *xmldb.Store) {
	s.store = store
	s.storeReady.Store(true)
}

// Env returns the snapshot's planner environment.
func (s *Snapshot) Env() *plan.Env { return &s.env }

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
// through stats.Successor first). A successor of a snapshot that has not
// loaded its store shares its node table and can load the same store. The
// plan cache starts empty: a new version means new statistics, which can
// change every choice. The env is copied without a lock: it is immutable
// once the snapshot is published.
func (s *Snapshot) clone() *Snapshot {
	next := &Snapshot{
		seq:    s.seq + 1,
		nextID: s.nextID,
	}
	if store := s.Store(); store != nil {
		next.setStore(store)
	}
	next.env = s.env
	return next
}

// successorStats gives the snapshot a private copy-on-write successor of
// the statistics it shares with its base, for a writer about to change the
// store; a version that was never built has none to carry.
func (s *Snapshot) successorStats() {
	if s.env.Stats != nil {
		s.env.Stats = s.env.Stats.Successor()
	}
}

// cowIndices replaces the incrementally maintained indices (ROOTPATHS /
// DATAPATHS) and the node table with copy-on-write clones whose mutations
// cannot touch pages the predecessor references (frontier = device page
// count when the predecessor froze), and drops the index structures that
// do not support incremental maintenance.
func (s *Snapshot) cowIndices(frontier storage.PageID) {
	if s.env.Nodes != nil {
		s.env.Nodes = s.env.Nodes.CloneCOW(frontier)
	}
	for k := index.Kind(0); k < index.NumKinds; k++ {
		switch old := s.env.Install(k, nil).(type) {
		case index.Maintained:
			s.env.Install(k, old.CloneCOW(frontier))
		case pageWalker:
			s.dropped = append(s.dropped, old)
		}
	}
}

// maintained returns the structures a write carries forward copy-on-write:
// the incrementally maintained indices and the node table.
func (s *Snapshot) maintained() []index.Lifecycle {
	var out []index.Lifecycle
	for _, st := range s.env.Structures() {
		if m, ok := st.(index.Maintained); ok {
			out = append(out, m)
		}
	}
	if s.env.Nodes != nil {
		out = append(out, s.env.Nodes)
	}
	return out
}

// maintain runs op, one statement's maintenance, on every structure the
// write carries forward, timing each and counting the pages it copied on
// write into h.
func (s *Snapshot) maintain(h *PrepareHists, op func(index.Lifecycle) error) error {
	for _, st := range s.env.Structures() {
		if m, ok := st.(index.Maintained); ok {
			if err := h.observe(&h.Maintain[m.Kind()], &h.Copied[m.Kind()], m, op); err != nil {
				return err
			}
		}
	}
	if s.env.Nodes == nil {
		return nil
	}
	return h.observe(&h.NodeTable, &h.Copied[index.NumKinds], s.env.Nodes, op)
}
