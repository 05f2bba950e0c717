// Package engine is the integration layer: it owns the XML store, the
// shared dictionary and path registry, the simulated disk and buffer pool,
// builds any subset of the index family, and executes queries under a
// chosen strategy.
package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pathdict"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Config tunes the substrate.
type Config struct {
	// BufferPoolBytes is the buffer pool size; the paper uses 40MB.
	BufferPoolBytes int64
	// PathsOptions configures ROOTPATHS/DATAPATHS compression (Section 4).
	PathsOptions index.PathsOptions
	// Path, when non-empty, backs the database with a durable paged file
	// at this path plus a write-ahead log at Path+".wal" (see
	// docs/STORAGE.md). Empty keeps the historical in-memory device. Use
	// Open (not New) for file-backed databases.
	Path string
	// Faults, when non-nil, is attached to the FileDisk at the media level,
	// below the page checksums (see docs/FAULTS.md); it needs a Path, and
	// Open fails with ErrFaultsNeedPath without one. The injector is live
	// from the moment the device is opened — disarm it first if recovery
	// and setup should run un-faulted, then Arm it (or use SetFaultsArmed).
	Faults *storage.FaultInjector
	// CheckpointWALBytes is the WAL size beyond which a commit wakes the
	// background checkpointer, which migrates committed frames into the
	// database file in bounded batches and then compacts the file tail —
	// off the commit path, so writers never stall behind migration. 0
	// means the 64MB default; only meaningful for file-backed databases.
	CheckpointWALBytes int64
	// SlowQueryThreshold, when > 0, enables per-operator tracing on every
	// query (the zero-alloc hot path is preserved; see docs/OBSERVABILITY.md)
	// and captures queries at least this slow — pattern, strategy, snapshot
	// version and traced plan — in a bounded ring read via SlowQueries.
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize caps the slow-query ring (0 = 64 entries).
	SlowQueryLogSize int
	// RetainSnapshots, when > 0, keeps that many superseded snapshots
	// pinned after publication so AS OF reads (SnapshotAt, ReadAsOf) can
	// query recent history by sequence number. A retained snapshot holds
	// the deferred page frees of every later commit, exactly like a
	// long-running reader, so the window trades space for time-travel
	// depth. 0 disables retention: only the current snapshot is queryable.
	RetainSnapshots int
}

// DefaultConfig mirrors the paper's 40MB buffer pool.
func DefaultConfig() Config {
	return Config{BufferPoolBytes: 40 << 20}
}

// DB is an XML database instance.
//
// A DB is safe for concurrent use, and reads never block on writes: every
// query pins the current Snapshot — an immutable version of the store,
// dictionaries, statistics and index handles published through one atomic
// pointer — and runs entirely against it, while mutations (loading
// documents, building indices, subtree insert/delete) serialise on a
// writer lock, prepare the *next* snapshot copy-on-write off to the side,
// and publish it with a single pointer swap. On file-backed databases,
// commits group-coalesce their WAL fsyncs (storage.FileDisk.SyncTo). See
// docs/CONCURRENCY.md for the full design and lock hierarchy.
type DB struct {
	cfg    Config
	dict   *pathdict.Dict
	ptab   *pathdict.PathTable
	dev    storage.Device
	fdisk  *storage.FileDisk // non-nil when file-backed
	faults *storage.FaultInjector
	pool   *storage.Pool

	// degradedCause, once set, puts the database in degraded read-only
	// mode: the published snapshot keeps serving queries lock-free, while
	// every mutation is rejected with ErrReadOnly wrapping the cause. Set
	// when a commit-path failure leaves the FileDisk poisoned (failed
	// fsync); never cleared — reopen the database to recover.
	degradedCause atomic.Pointer[degradedState]

	// current is the published snapshot; queries load it without locking.
	current atomic.Pointer[Snapshot]

	// writeMu serialises mutations: only one writer at a time prepares and
	// publishes a successor snapshot. It is never taken by readers.
	writeMu sync.Mutex

	// frontier is the device page count captured when the current snapshot
	// was published (writer-owned, under writeMu): pages below it may be
	// referenced by the published snapshot (or an older pinned one) and
	// must be copied, not modified, by the next writer. It only grows, so
	// every retired snapshot stays protected for as long as it is pinned.
	frontier storage.PageID

	// catalogPages is the page chain holding the last written catalog;
	// commits overwrite it in place (safe: overwrites are WAL frames).
	// Writer-owned, under writeMu.
	catalogPages []storage.PageID

	// retired is the deferred-free queue: each batch holds pages that the
	// snapshot with sequence seq (and everything after it) no longer
	// references — COW originals and unlinked empty nodes — but that older
	// pinned snapshots may still read. reclaimRetired frees a batch once no
	// pinned snapshot older than its seq remains. Writer-owned, under
	// writeMu.
	retired []retireBatch

	// liveSnaps are superseded snapshots that may still hold reader pins,
	// blocking the retired batches published after them. Writer-owned,
	// under writeMu.
	liveSnaps []*Snapshot

	// nextNodeID is the global node id allocator: transactions reserve
	// pre-order id ranges with one atomic add, so concurrent preparers
	// never collide and a transaction's ids survive commit replays
	// unchanged. Seeded from the recovered store's counter at Open.
	nextNodeID atomic.Int64

	// commitLog is the bounded ring of published write-sets that commit
	// validation scans (see conflictsSince). Writer-owned, under writeMu.
	commitLog []commitRecord

	// retained is the AS OF window: the last Config.RetainSnapshots
	// superseded versions, each holding a standing pin taken at publish.
	// retainMu guards the ring so readers can pin entries without writeMu.
	retainMu sync.Mutex
	retained []*Snapshot

	// commitHook, when set, is called at the commit protocol's stage
	// boundaries (crash kill-point tests).
	commitHook atomic.Pointer[func(CommitStage)]

	// ckptWake nudges the background checkpointer (buffered, lossy sends);
	// ckptQuit/ckptDone manage its shutdown. Nil on in-memory databases.
	ckptWake chan struct{}
	ckptQuit chan struct{}
	ckptDone chan struct{}
	ckptOnce sync.Once

	counters stats.QueryCounters

	// reg holds the engine's latency histograms (query end-to-end, WAL
	// fsync, group-commit batch size, pool-miss reads, checkpoints); the
	// storage layer records into them directly via observers installed at
	// Open, before the pool and device are shared.
	reg *obs.Registry
	// slowLog is the bounded slow-query ring; empty unless
	// Config.SlowQueryThreshold is set.
	slowLog *obs.SlowLog
}

// degradedState boxes the root cause of read-only mode.
type degradedState struct{ cause error }

// ErrReadOnly is returned by every mutation once the database has entered
// degraded read-only mode (after a poisoned fsync): the last published
// snapshot keeps serving queries, writers are rejected. errors.Is-match it;
// the wrapped chain carries the root cause.
var ErrReadOnly = errors.New("engine: database is in degraded read-only mode")

// degrade transitions the database to read-only mode (first cause wins).
func (db *DB) degrade(cause error) {
	db.degradedCause.CompareAndSwap(nil, &degradedState{cause: cause})
}

// writeGate returns the ErrReadOnly error rejecting a mutation, or nil
// while the database is healthy. Callers hold writeMu.
func (db *DB) writeGate() error {
	if d := db.degradedCause.Load(); d != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, d.cause)
	}
	return nil
}

// noteCommitErr inspects a commit-path failure: if it left the FileDisk
// poisoned (a failed fsync — fsyncgate semantics), the engine degrades to
// read-only mode. Transient failures (an injected write error, a corrupt
// WAL frame failing a checkpoint) do not poison the disk and leave the
// database writable; the failed snapshot was simply never published or
// never became durable, depending on where the commit path stopped.
func (db *DB) noteCommitErr(err error) error {
	if err != nil && db.fdisk != nil {
		if cause := db.fdisk.Poisoned(); cause != nil {
			db.degrade(cause)
		}
	}
	return err
}

// Health describes the database's availability state plus the device
// counters that explain it (checksum failures, injected faults, retries,
// poisoned). Queries keep running in read-only mode; ReadOnly only means
// mutations are rejected.
type Health struct {
	// ReadOnly reports degraded read-only mode; Cause is its root cause
	// (nil while healthy).
	ReadOnly bool
	Cause    error
	// SnapshotSeq is the published snapshot's version number — the state
	// reads are served from.
	SnapshotSeq uint64
	// Device is the full device counter set, including ChecksumFailures,
	// ChecksumRetries, InjectedFaults, RecoveredCommits and Poisoned.
	Device storage.DeviceStats
}

// Health returns the current availability state; lock-free, safe to call
// from monitoring paths at any frequency.
func (db *DB) Health() Health {
	h := Health{
		SnapshotSeq: db.current.Load().Seq(),
		Device:      db.dev.DeviceStats(),
	}
	if d := db.degradedCause.Load(); d != nil {
		h.ReadOnly = true
		h.Cause = d.cause
	}
	return h
}

// FaultInjector returns the injector the database was opened with (nil
// when fault injection is not configured).
func (db *DB) FaultInjector() *storage.FaultInjector { return db.faults }

// SetFaultsArmed arms or disarms the configured fault injector; no-op
// without one. Harnesses disarm it for setup and arm it for the measured
// phase.
func (db *DB) SetFaultsArmed(armed bool) {
	if db.faults == nil {
		return
	}
	if armed {
		db.faults.Arm()
	} else {
		db.faults.Disarm()
	}
}

// ErrFaultsNeedPath fails Open when Config.Faults is set without a Path:
// faults are injected below the FileDisk's page checksums, and the
// in-memory device has none to detect a flipped bit or a torn page.
var ErrFaultsNeedPath = errors.New("engine: fault injection needs a file-backed database (Config.Path)")

// New creates an empty in-memory database. File-backed databases (Config
// with Path set) must go through Open, which can report I/O and recovery
// errors; New panics if given a Path, or Faults (which need a Path).
func New(cfg Config) *DB {
	if cfg.Path != "" {
		panic("engine: New with Config.Path; use Open for file-backed databases")
	}
	db, err := Open(cfg)
	if err != nil {
		panic(err) // only ErrFaultsNeedPath: the in-memory path cannot fail
	}
	return db
}

// Open creates a database over the configured device. With an empty Path
// it is New; with a Path it opens (creating if absent) the database file
// and its write-ahead log, recovers to the last committed state (replaying
// the committed WAL prefix and discarding any torn tail), and restores the
// persisted catalog — store, dictionaries and every built index — so
// queries run immediately, with zero rebuild work.
func Open(cfg Config) (*DB, error) {
	if cfg.BufferPoolBytes <= 0 {
		cfg.BufferPoolBytes = 40 << 20
	}
	if cfg.CheckpointWALBytes <= 0 {
		cfg.CheckpointWALBytes = walCheckpointBytes
	}
	db := &DB{
		cfg:    cfg,
		dict:   pathdict.NewDict(),
		ptab:   pathdict.NewPathTable(),
		faults: cfg.Faults,
	}
	switch {
	case cfg.Path != "":
		fdisk, err := storage.OpenFileDisk(cfg.Path)
		if err != nil {
			return nil, err
		}
		fdisk.SetFaultInjector(cfg.Faults)
		db.fdisk = fdisk
		db.dev = fdisk
	case cfg.Faults != nil:
		return nil, ErrFaultsNeedPath
	default:
		db.dev = storage.NewDisk()
	}
	db.pool = storage.NewPool(db.dev, cfg.BufferPoolBytes)
	db.reg = obs.NewRegistry()
	logSize := cfg.SlowQueryLogSize
	if logSize <= 0 {
		logSize = 64
	}
	db.slowLog = obs.NewSlowLog(logSize)
	// Observers must be installed before the pool and device are shared
	// with readers; from here on they record lock-free.
	db.pool.SetMissObserver(db.reg.PoolMissLatency)
	if db.fdisk != nil {
		db.fdisk.SetLatencyObservers(db.reg.WALFsyncLatency, db.reg.GroupCommitBatch, db.reg.CheckpointDuration)
	}
	snap := &Snapshot{store: xmldb.NewStore(), dict: db.dict, ptab: db.ptab}
	snap.env.Store = snap.store
	snap.env.Dict = db.dict
	// TraceAll and IOStat are carried into every successor snapshot by
	// Snapshot.clone's env copy.
	snap.env.TraceAll = cfg.SlowQueryThreshold > 0
	dev := db.dev
	snap.env.IOStat = func() (reads, bytes int64) {
		r, _ := dev.Counters()
		return r, r * storage.PageSize
	}
	if db.fdisk != nil {
		if root := db.fdisk.Meta().CatalogRoot; root != storage.InvalidPage {
			blob, pages, err := readCatalogChain(db.dev, root)
			if err == nil {
				err = decodeCatalog(db, snap, blob)
			}
			if err != nil {
				db.fdisk.Close()
				return nil, err
			}
			db.catalogPages = pages
		}
	}
	db.current.Store(snap)
	db.frontier = storage.PageID(db.dev.NumPages())
	db.nextNodeID.Store(snap.store.NextID())
	if db.fdisk != nil {
		db.ckptWake = make(chan struct{}, 1)
		db.ckptQuit = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop()
	}
	return db, nil
}

// checkpointLoop is the background checkpointer: woken when a commit sees
// the WAL past its budget, it migrates committed frames into the database
// file in bounded batches (storage.FileDisk.Checkpoint) and then returns
// any all-free file tail to the filesystem (Compact). It deliberately does
// NOT take writeMu — commits keep appending and fsyncing the WAL while
// migration runs; the FileDisk interleaves the two safely.
func (db *DB) checkpointLoop() {
	defer close(db.ckptDone)
	for {
		select {
		case <-db.ckptQuit:
			return
		case <-db.ckptWake:
		}
		if db.degradedCause.Load() != nil {
			continue
		}
		if err := db.fdisk.Checkpoint(); err != nil {
			db.noteCommitErr(err)
			continue
		}
		if _, err := db.fdisk.Compact(); err != nil {
			db.noteCommitErr(err)
		}
	}
}

// stopCheckpointer shuts the background checkpointer down and waits for it
// (idempotent; no-op for in-memory databases). Must be called before the
// FileDisk is closed.
func (db *DB) stopCheckpointer() {
	if db.ckptQuit == nil {
		return
	}
	db.ckptOnce.Do(func() {
		close(db.ckptQuit)
		<-db.ckptDone
	})
}

// pin loads the current snapshot and pins it for the duration of one query.
// Pinning is an atomic counter bump — no lock. The pin is load-bearing:
// reclaimRetired defers freeing any page a pinned snapshot might still
// read. The superseded re-check closes the race with a concurrent
// publish+reclaim — a writer that read pins == 0 *after* setting
// superseded may already treat the snapshot as drained, so a pin that
// lands afterwards must be abandoned and retried on the new current
// (sequentially consistent atomics make exactly one of the two sides see
// the other; see reclaimRetired).
func (db *DB) pin() *Snapshot {
	for {
		s := db.current.Load()
		s.pins.Add(1)
		if !s.superseded.Load() {
			db.counters.CountSnapshotPin()
			return s
		}
		s.pins.Add(-1)
	}
}

func (db *DB) unpin(s *Snapshot) { s.pins.Add(-1) }

// CurrentSnapshot returns the published snapshot without pinning it (for
// observability and white-box tests; queries pin internally).
func (db *DB) CurrentSnapshot() *Snapshot { return db.current.Load() }

// walCheckpointBytes is the default Config.CheckpointWALBytes: the WAL
// size beyond which a commit wakes the background checkpointer, bounding
// log growth and recovery time.
const walCheckpointBytes = 64 << 20

// retireBatch is one publish's worth of deferred page frees: pages that
// snapshots with sequence >= seq no longer reference.
type retireBatch struct {
	seq   uint64
	pages []storage.PageID
}

// commitAppend is the writer's commit step for file-backed databases:
// flush every dirty pool frame to the device (WAL frames), serialise next's
// catalog into its page chain, and append — without fsyncing — the commit
// record that seals them. It returns the commit sequence to pass to
// FileDisk.SyncTo once the writer lock is released, so concurrent commits
// coalesce their fsyncs (group commit). No-op for in-memory databases.
// Callers hold writeMu.
func (db *DB) commitAppend(next *Snapshot) (int64, error) {
	if db.fdisk == nil {
		return 0, nil
	}
	if err := db.pool.FlushAll(); err != nil {
		return 0, fmt.Errorf("engine: commit flush: %w", err)
	}
	root, pages, err := writeCatalogChain(db.dev, db.catalogPages, encodeCatalog(next))
	db.catalogPages = pages
	if err != nil {
		return 0, err
	}
	seq, err := db.fdisk.CommitAsync(storage.Meta{
		NumPages:    int32(db.dev.NumPages()),
		CatalogRoot: root,
		// FreeHead is owned by the FileDisk: CommitAsync stamps the live
		// free-list head over whatever is passed here.
		FreeHead: storage.InvalidPage,
	})
	if err != nil {
		return 0, fmt.Errorf("engine: commit: %w", err)
	}
	return seq, nil
}

// publish makes next the current snapshot, advances the COW frontier past
// every page allocated so far, and supersedes the predecessor, which joins
// the drain list blocking deferred frees until its readers leave. Every
// publish also logs its write-set (docs/all) for transaction validation
// and, with retention configured, moves the predecessor into the AS OF
// window under a standing pin — taken here, before the predecessor is
// superseded, so it can never be treated as drained while retained.
// Callers hold writeMu.
func (db *DB) publish(next *Snapshot, docs []int64, all bool) {
	prev := db.current.Load()
	db.frontier = storage.PageID(db.dev.NumPages())
	if k := db.cfg.RetainSnapshots; k > 0 {
		prev.pins.Add(1)
		db.retainMu.Lock()
		db.retained = append(db.retained, prev)
		for len(db.retained) > k {
			old := db.retained[0]
			copy(db.retained, db.retained[1:])
			db.retained[len(db.retained)-1] = nil
			db.retained = db.retained[:len(db.retained)-1]
			old.pins.Add(-1)
		}
		db.retainMu.Unlock()
	}
	db.current.Store(next)
	prev.superseded.Store(true)
	db.liveSnaps = append(db.liveSnaps, prev)
	db.logCommit(next.seq, docs, all)
}

// collectRetired drains the pages next's COW index clones stopped
// referencing into the deferred-free queue, tagged with next's sequence:
// only snapshots older than next can still read them. Call only once
// next's commit record is appended (an aborted commit discards the clone,
// and its replaced originals stay live in the current version). Callers
// hold writeMu.
func (db *DB) collectRetired(next *Snapshot) {
	var pages []storage.PageID
	for _, m := range next.maintained() {
		pages = append(pages, m.TakeRetired()...)
	}
	if len(pages) > 0 {
		db.retired = append(db.retired, retireBatch{seq: next.seq, pages: pages})
	}
}

// reclaimRetired frees every deferred batch no pinned snapshot can still
// read. A superseded snapshot with zero pins is drained for good: pin()
// only keeps a pin on the snapshot that is current at pin time, and the
// superseded flag was set before the pins load here, so a racing reader
// either made its pin visible to this load or will observe superseded and
// retry (both sides are sequentially consistent atomics). Frees are
// best-effort — a page the device refuses to free is simply leaked, never
// double-allocated. Callers hold writeMu.
func (db *DB) reclaimRetired() {
	minPinned := ^uint64(0)
	live := db.liveSnaps[:0]
	for _, s := range db.liveSnaps {
		if s.pins.Load() == 0 {
			continue
		}
		live = append(live, s)
		if s.seq < minPinned {
			minPinned = s.seq
		}
	}
	clear(db.liveSnaps[len(live):])
	db.liveSnaps = live
	keep := db.retired[:0]
	for _, b := range db.retired {
		// Pages in b are unreferenced by snapshots with seq >= b.seq, so
		// only a pinned snapshot strictly older than b.seq blocks the free.
		if b.seq <= minPinned {
			for _, id := range b.pages {
				_ = db.pool.Free(id)
			}
		} else {
			keep = append(keep, b)
		}
	}
	db.retired = keep
}

// commitPublish commits next (appending its commit record), publishes it,
// wakes the background checkpointer if the WAL has outgrown its budget,
// releases the writer lock, and finally waits for durability — the fsync
// wait happens outside writeMu, which is what lets N concurrent committers
// share one fsync. The checkpoint itself never runs here: migration is the
// background goroutine's job, so the commit path's tail latency stays
// fsync-bound even while the WAL is being drained. docs/all are the
// commit's write-set, logged at publish for transaction validation. The
// caller must hold writeMu and must not touch it afterwards.
func (db *DB) commitPublish(next *Snapshot, docs []int64, all bool) error {
	start := time.Now()
	// Reclaim before appending the commit record, so the free-page frames
	// ride *inside* this commit: recovery truncated exactly at the record
	// must replay them, and nothing may trail the record (every byte after
	// the last commit record is a torn tail to recovery). Only batches
	// from previously published versions are eligible here — next's own
	// retirements are collected after the append succeeds.
	db.reclaimRetired()
	seq, err := db.commitAppend(next)
	if err != nil {
		db.writeMu.Unlock()
		return db.noteCommitErr(err)
	}
	db.collectRetired(next)
	db.publish(next, docs, all)
	wake := db.fdisk != nil && db.fdisk.WALSize() > db.cfg.CheckpointWALBytes
	db.writeMu.Unlock()
	if wake {
		select {
		case db.ckptWake <- struct{}{}:
		default: // a wake-up is already queued
		}
	}
	if db.fdisk != nil {
		// The snapshot is already published: if this fsync fails and
		// poisons the disk, the state served in read-only mode includes
		// this commit — applied, just never durable (see docs/FAULTS.md).
		err := db.noteCommitErr(db.fdisk.SyncTo(seq))
		db.reg.CommitLatency.Observe(time.Since(start).Nanoseconds())
		return err
	}
	return nil
}

// Checkpoint commits the current state and migrates the WAL into the
// database file, truncating the log (so the next open replays nothing).
// No-op for in-memory databases.
func (db *DB) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.fdisk == nil {
		return nil
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	db.reclaimRetired() // drained snapshots' pages ride this commit
	if _, err := db.commitAppend(db.current.Load()); err != nil {
		return db.noteCommitErr(err)
	}
	return db.noteCommitErr(db.fdisk.Checkpoint())
}

// Close commits, checkpoints and closes a file-backed database; a closed
// DB must not be used further. No-op for in-memory databases.
func (db *DB) Close() error {
	db.stopCheckpointer()
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.fdisk == nil {
		return nil
	}
	if db.writeGate() != nil {
		// Degraded: nothing new can be made durable (the disk is
		// poisoned), so just release the handles. The file still holds the
		// last durable state; reopening recovers it.
		return db.fdisk.Close()
	}
	if _, err := db.commitAppend(db.current.Load()); err != nil {
		db.fdisk.Close()
		return db.noteCommitErr(err)
	}
	if err := db.fdisk.Checkpoint(); err != nil {
		db.fdisk.Close()
		return db.noteCommitErr(err)
	}
	return db.fdisk.Close()
}

// LoadXML parses one document from r and adds it to the store. Documents
// must be loaded before indices are built (see AddDocument).
func (db *DB) LoadXML(r io.Reader) error {
	doc, err := xmldb.Parse(r)
	if err != nil {
		return err
	}
	return db.AddDocument(doc)
}

// ErrLoadAfterBuild rejects LoadXML and AddDocument on a database with any
// index built: the bulk-load path does not maintain indices, so they would
// silently miss the new document. InsertSubtree(0, …), which maintains
// ROOTPATHS/DATAPATHS, adds a document to an indexed database.
var ErrLoadAfterBuild = errors.New("engine: cannot bulk-load into an indexed database; add the document with Insert(0, …), which maintains ROOTPATHS/DATAPATHS")

// AddDocument adds an already-built document tree, publishing a new
// snapshot that shares every existing document. It is the bulk-load path,
// for use before any index is built: afterwards it returns
// ErrLoadAfterBuild. Returns ErrReadOnly on a degraded database.
func (db *DB) AddDocument(doc *xmldb.Document) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writeGate(); err != nil {
		return err
	}
	cur := db.current.Load()
	if len(cur.env.Structures()) > 0 || cur.env.Containment != nil {
		return ErrLoadAfterBuild
	}
	next := cur.clone()
	store := cur.store.CloneShallow()
	// Ids come from the global allocator (shared with transactions), then
	// the pre-numbered tree is attached; the store counter follows the
	// allocator so both agree on what is handed out.
	db.numberTree(doc.Root)
	if err := store.RestoreDocument(doc); err != nil {
		return err
	}
	store.SetNextID(db.nextNodeID.Load())
	next.store = store
	next.env.Store = store
	next.successorStats()
	if st := next.env.Stats; st != nil {
		st.Apply(store, db.dict, doc.Root, +1)
	}
	db.publish(next, nil, false)
	return nil
}

// Store exposes the current snapshot's XML store.
func (db *DB) Store() *xmldb.Store { return db.current.Load().store }

// Dict exposes the shared designator dictionary.
func (db *DB) Dict() *pathdict.Dict { return db.dict }

// Env exposes the current snapshot's planner environment, statistics
// materialised (for white-box tests and benches; treat it as read-only —
// copy before tweaking knobs).
func (db *DB) Env() *plan.Env { return db.current.Load().queryEnv() }

// Pool exposes the shared buffer pool.
func (db *DB) Pool() *storage.Pool { return db.pool }

// Build constructs the given index structures, publishing a successor
// snapshot that carries them (plus fresh statistics). Indices already
// built are rebuilt from scratch; other index handles carry over.
func (db *DB) Build(kinds ...index.Kind) error {
	db.writeMu.Lock()
	if err := db.writeGate(); err != nil {
		db.writeMu.Unlock()
		return err
	}
	cur := db.current.Load()
	next := cur.clone()
	next.env.Stats = stats.Collect(next.store, db.dict)
	next.statsReady.Store(true)
	site := index.Site{Pool: db.pool, Store: next.store, Dict: db.dict, Ptab: db.ptab, Opts: db.cfg.PathsOptions}
	for _, k := range kinds {
		built, err := index.Build(k, site)
		if err != nil {
			db.writeMu.Unlock()
			return fmt.Errorf("engine: building %v: %w", k, err)
		}
		next.env.Install(k, built)
	}
	// all=true: a rebuild touches the whole database, so every in-flight
	// transaction spanning it conflicts (conservative — Build normally runs
	// during setup, not under concurrent transactions).
	return db.commitPublish(next, nil, true)
}

// BuildAll constructs every persisted index structure — the paper's
// family; the containment extension is built on request.
func (db *DB) BuildAll() error { return db.Build(index.PersistedKinds()...) }

// InsertSubtree attaches sub (an unattached tree, e.g. a parsed fragment's
// root) under the node with id parentID and incrementally maintains the
// ROOTPATHS and DATAPATHS indices (paper Section 7). The other index
// structures do not support incremental maintenance and are invalidated;
// rebuild them with Build if their strategies are still needed.
//
// The update runs as an implicit single-statement transaction: prepared
// copy-on-write against a successor snapshot — concurrent queries keep
// reading the current one, unblocked — validated against concurrently
// committed write-sets, and published atomically. Conflicts are retried
// internally on a fresh base, without limit — first committer wins, so
// some contender always makes progress — and this call never surfaces
// ErrConflict. On a file-backed database the call returns
// once the commit is durable; concurrent committers share their WAL fsync
// (group commit). sub is numbered from the global allocator; the caller's
// tree is the template and stays unattached (read ids from it as before).
func (db *DB) InsertSubtree(parentID int64, sub *xmldb.Node) error {
	return db.Update(func(tx *Tx) error { return tx.Insert(parentID, sub) }, -1)
}

// DeleteSubtree removes the node with the given id and its subtree,
// incrementally maintaining ROOTPATHS and DATAPATHS and invalidating the
// non-updatable index structures. An implicit single-statement
// transaction, prepared copy-on-write and published atomically, like
// InsertSubtree.
func (db *DB) DeleteSubtree(nodeID int64) error {
	return db.Update(func(tx *Tx) error { return tx.Delete(nodeID) }, -1)
}

// QueryCounters returns a snapshot of the engine-lifetime query counters.
func (db *DB) QueryCounters() stats.QuerySnapshot { return db.counters.Snapshot() }

// ViewNodes invokes fn once with the pinned snapshot's store, so callers
// can materialise node details (NodeByID, Path) at a consistent version.
// The store and its nodes must not be retained after fn returns.
func (db *DB) ViewNodes(fn func(*xmldb.Store)) {
	s := db.pin()
	defer db.unpin(s)
	fn(s.store)
}

// NodeCount returns the number of element/attribute nodes in the current
// snapshot.
func (db *DB) NodeCount() int {
	return db.current.Load().store.NodeCount()
}

// Explain renders the plan for a pattern under a strategy.
func (db *DB) Explain(pat *xpath.Pattern, strat plan.Strategy) (string, error) {
	s := db.pin()
	defer db.unpin(s)
	return plan.Explain(s.queryEnv(), strat, pat)
}

// CurrentSeq returns the published snapshot's sequence number — the
// version an AS OF read would need to observe the present.
func (db *DB) CurrentSeq() uint64 { return db.current.Load().seq }

// RetainedSnapshots returns how many superseded versions are currently
// held in the AS OF window (0 without Config.RetainSnapshots).
func (db *DB) RetainedSnapshots() int {
	db.retainMu.Lock()
	defer db.retainMu.Unlock()
	return len(db.retained)
}

// SnapshotAt pins the snapshot with the given sequence number — the
// current one, or a superseded one still in the AS OF retention window —
// and returns it with its release function. Sequence numbers outside the
// window fail with ErrSnapshotRetired.
func (db *DB) SnapshotAt(seq uint64) (*Snapshot, func(), error) {
	s := db.pin()
	if s.seq == seq {
		return s, func() { db.unpin(s) }, nil
	}
	if seq > s.seq {
		db.unpin(s)
		return nil, nil, fmt.Errorf("%w: seq %d is ahead of the published chain (current %d)", ErrSnapshotRetired, seq, s.seq)
	}
	db.unpin(s)
	// A snapshot older than the one pinned above is either in the
	// retention ring already (it was moved there while publishing its
	// successor, before that successor could even be observed) or evicted
	// for good — one scan decides. Pinning under retainMu is safe: the
	// ring's standing pin keeps the entry from being treated as drained,
	// and eviction drops that pin only under this same lock.
	db.retainMu.Lock()
	for _, r := range db.retained {
		if r.seq == seq {
			r.pins.Add(1)
			db.retainMu.Unlock()
			db.counters.CountSnapshotPin()
			return r, func() { db.unpin(r) }, nil
		}
	}
	db.retainMu.Unlock()
	return nil, nil, fmt.Errorf("%w: seq %d (current %d, retention window %d)", ErrSnapshotRetired, seq, s.seq, db.cfg.RetainSnapshots)
}

// Obs returns the engine's histogram registry (always non-nil); callers
// snapshot the histograms for quantiles or Prometheus exposition.
func (db *DB) Obs() *obs.Registry { return db.reg }

// SlowQueries returns the retained slow-query entries, oldest first
// (empty unless Config.SlowQueryThreshold is set).
func (db *DB) SlowQueries() []obs.SlowQuery { return db.slowLog.Entries() }

// SlowQueryLog exposes the slow-query ring itself (for its lifetime Total).
func (db *DB) SlowQueryLog() *obs.SlowLog { return db.slowLog }

// ExplainBest renders the cost-based planner's deliberation for pat (every
// candidate strategy with its estimated plan cost) followed by the chosen
// plan tree, resolved against one pinned snapshot; returns the strategy
// chosen.
func (db *DB) ExplainBest(pat *xpath.Pattern) (string, plan.Strategy, error) {
	s := db.pin()
	defer db.unpin(s)
	return plan.ExplainChosen(s.queryEnv(), pat)
}

// Spaces reports the footprint of every built index.
func (db *DB) Spaces() []index.Space {
	s := db.pin()
	defer db.unpin(s)
	var out []index.Space
	for _, st := range s.env.Structures() {
		out = append(out, st.Space())
	}
	return out
}

// Device exposes the page device (the in-memory Disk or the FileDisk,
// which carries the fault injector when one is configured).
func (db *DB) Device() storage.Device { return db.dev }

// DeviceStats returns cumulative device I/O counters, including the WAL
// append/fsync/checkpoint work of a file-backed database.
func (db *DB) DeviceStats() storage.DeviceStats { return db.dev.DeviceStats() }

// PoolStats returns buffer pool counters.
func (db *DB) PoolStats() storage.PoolStats { return db.pool.Stats() }
