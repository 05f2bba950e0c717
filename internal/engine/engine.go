// Package engine is the integration layer: it owns the XML store, the
// shared dictionary and path registry, the page device and buffer pool,
// builds any subset of the index family, and executes queries under a
// chosen strategy.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
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
	// docs/STORAGE.md). Empty puts the same two files in memory: the
	// database runs the same device code and nothing outlives the process.
	// Use Open (not New) for file-backed databases.
	Path string
	// Faults, when non-nil, is attached to the FileDisk at the media level,
	// below the page checksums (see docs/FAULTS.md). The injector is live
	// from the moment the device is opened — disarm it first if recovery
	// and setup should run un-faulted, then Arm it (or use SetFaultsArmed).
	Faults *storage.FaultInjector
	// CheckpointWALBytes bounds the WAL: a commit that finds the log past
	// the last sync point (see commitPublish) grown beyond it is itself a
	// sync point, which writes the dirty pages home and empties the log.
	// It bounds the replay at the next Open. 0 means the 64MB default. An
	// in-memory database holds up to this much WAL in memory beside its
	// pages.
	CheckpointWALBytes int64
	// SlowQueryThreshold, when > 0, enables per-operator tracing on every
	// query (the zero-alloc hot path is preserved; see docs/OBSERVABILITY.md)
	// and captures queries at least this slow — pattern, strategy, snapshot
	// version and traced plan — in a ring of the last slowLogSize entries
	// read via SlowQueries.
	SlowQueryThreshold time.Duration
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
// and publish it with a single pointer swap. Commits group-coalesce their
// WAL fsyncs (storage.FileDisk.SyncTo). See
// docs/CONCURRENCY.md for the full design and lock hierarchy.
type DB struct {
	cfg    Config
	dict   *pathdict.Dict
	ptab   *pathdict.PathTable
	fdisk  *storage.FileDisk // on disk with Config.Path, in memory without
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

	// stmtMu keeps a sync point's flush apart from the page writes that
	// happen outside writeMu: a transaction prepares its statements
	// (Tx.applyOp) without the writer lock, mutating pinned pages of its
	// unpublished successor in place, and holds stmtMu shared meanwhile.
	// The flush writes pinned frames too — a published version's pages may
	// be pinned by readers when the sync point seals them — so it holds
	// stmtMu exclusively: every pinned frame it writes is then one whose
	// bytes nobody is changing.
	stmtMu sync.RWMutex

	// frontier is the device page count captured when the current snapshot
	// was published (writer-owned, under writeMu): pages below it may be
	// referenced by the published snapshot (or an older pinned one) and
	// must be copied, not modified, by the next writer. It only grows, so
	// every retired snapshot stays protected for as long as it is pinned.
	frontier storage.PageID

	// catalogPages is the page chain holding the last written catalog, and
	// catalogBlob its bytes. A sync point whose catalog differs writes it
	// copy-on-write into a fresh chain and frees these pages, which the
	// device holds back until the seal: the sealed state reaches them.
	// Writer-owned, under writeMu.
	catalogPages []storage.PageID
	catalogBlob  []byte

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

	counters stats.QueryCounters

	// storeLoads counts the stores read from the node table on first need
	// (storeOf), for the tests that check nothing else reads them.
	storeLoads atomic.Int64

	// reg holds the engine's latency histograms (query end-to-end, WAL
	// fsync, group-commit batch size, pool-miss reads, checkpoints); the
	// storage layer records into them directly via observers installed at
	// Open, before the pool and device are shared.
	reg *obs.Registry
	// prep attributes each statement's prepare to its phases (Prepare).
	prep PrepareHists
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
	if err != nil {
		if cause := db.fdisk.Poisoned(); cause != nil {
			db.degrade(cause)
		}
	}
	return err
}

// Health describes the database's availability state; DeviceStats has the
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
}

// Health returns the current availability state; lock-free, safe to call
// from monitoring paths at any frequency.
func (db *DB) Health() Health {
	h := Health{SnapshotSeq: db.current.Load().Seq()}
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

// New creates an empty in-memory database. File-backed databases (Config
// with Path set) must go through Open, which can report I/O and recovery
// errors; New panics if given a Path.
func New(cfg Config) *DB {
	if cfg.Path != "" {
		panic("engine: New with Config.Path; use Open for file-backed databases")
	}
	db, err := Open(cfg)
	if err != nil {
		panic(err) // an empty in-memory device cannot fail to open
	}
	return db
}

// Open creates a database over a FileDisk. With an empty Path the disk's
// files are in memory and Open is New; with a Path it opens (creating if
// absent) the database file and its write-ahead log, recovers the page
// state of the last sync point (the newer superblock; a torn log tail is
// discarded), restores the persisted catalog — dictionaries and every
// built index — so queries run immediately, with zero rebuild work, and
// then replays the commits logged after that sync point (replayLog). The
// documents stay in the node table: Open reads it once to validate it and
// to derive the planner's statistics, and builds the XML store from it
// only when something needs one — a logged commit to replay, an Oracle
// read, a write, Build, ViewNodes or Store.
func Open(cfg Config) (*DB, error) {
	if cfg.Path == "" {
		return openOn(cfg, storage.NewMemFileDisk())
	}
	fdisk, err := storage.OpenFileDisk(cfg.Path)
	if err != nil {
		return nil, err
	}
	return openOn(cfg, fdisk)
}

// openOn is Open over an opened device; cfg.Path only names it.
func openOn(cfg Config, fdisk *storage.FileDisk) (*DB, error) {
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
		fdisk:  fdisk,
		faults: cfg.Faults,
	}
	db.fdisk.SetFaultInjector(cfg.Faults)
	db.pool = storage.NewPool(db.fdisk, cfg.BufferPoolBytes)
	db.reg = obs.NewRegistry()
	db.slowLog = obs.NewSlowLog(slowLogSize)
	// Observers must be installed before the pool and device are shared
	// with readers; from here on they record lock-free.
	db.pool.SetMissObserver(db.reg.PoolMissLatency)
	db.fdisk.SetLatencyObservers(db.reg.WALFsyncLatency, db.reg.GroupCommitBatch, db.reg.CheckpointDuration)
	snap := &Snapshot{nextID: 1, dict: db.dict, ptab: db.ptab}
	snap.env.Dict = db.dict
	// TraceAll and IOStat are carried into every successor snapshot by
	// Snapshot.clone's env copy.
	snap.env.TraceAll = cfg.SlowQueryThreshold > 0
	snap.env.IOStat = func() (reads, bytes int64) {
		r, _ := fdisk.Counters()
		return r, r * storage.PageSize
	}
	if root := db.fdisk.Meta().CatalogRoot; root != storage.InvalidPage {
		blob, pages, err := readCatalogChain(db.fdisk, root)
		if err == nil {
			err = decodeCatalog(db, snap, blob)
		}
		if err != nil {
			db.fdisk.Close()
			return nil, err
		}
		db.catalogPages, db.catalogBlob = pages, blob
	} else {
		snap.setStore(xmldb.NewStore())
	}
	db.current.Store(snap)
	db.frontier = storage.PageID(db.fdisk.NumPages())
	db.nextNodeID.Store(snap.nextID)
	if err := db.replayLog(); err != nil {
		db.fdisk.Close()
		return nil, err
	}
	return db, nil
}

// replayLog re-applies, in order, the commits the WAL logged after its
// last sync point, publishing each as its commit did; their records stay in
// the WAL until the next sync point covers them. Each goes through
// Tx.replayOnto, the path a commit replay takes, so a recovered version
// equals the one its commit published (node ids included; page ids may
// differ). Nobody reads the replayed versions, so the pages the last one
// retired are freed at once. A record that does not decode or apply fails
// Open.
func (db *DB) replayLog() error {
	for i, rec := range db.fdisk.TakeRecoveredLog() {
		nextID, ops, err := decodeTxRecord(rec)
		if err != nil {
			return fmt.Errorf("engine: recovering logged commit %d: %w", i+1, err)
		}
		tx := &Tx{db: db, ops: ops}
		next, err := tx.replayOnto(db.current.Load())
		if err != nil {
			return fmt.Errorf("engine: replaying logged commit %d: %w: %w", i+1, storage.ErrCorruptPage, err)
		}
		next.nextID = nextID
		next.store.SetNextID(nextID)
		db.reclaimRetired()
		db.collectRetired(next)
		db.publish(next, next.store.WriteSet(), false)
		db.nextNodeID.Store(max(db.nextNodeID.Load(), nextID))
	}
	db.reclaimRetired()
	return nil
}

// storeOf returns the snapshot's store, reading it from the node table if
// the snapshot was opened from a file and nothing has needed it since.
// The caller holds a pin on s (or writeMu, with s current), which keeps
// the table's pages from being freed under the read. Concurrent first
// needs read it once: the rest wait on the latch and share the result. A
// failed read leaves the snapshot without a store and is reported to
// every caller that needs one, wrapping index.ErrCorruptCatalog and the
// device's error (storage.ErrCorruptPage for a failed checksum).
func (db *DB) storeOf(s *Snapshot) (*xmldb.Store, error) {
	if s.storeReady.Load() {
		return s.store, nil
	}
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.storeReady.Load() {
		return s.store, nil
	}
	store, err := readNodeTable(db.fdisk, s.env.Nodes.Tree().Meta(), s.dict)
	if err != nil {
		return nil, err
	}
	store.SetNextID(s.nextID)
	db.storeLoads.Add(1)
	s.setStore(store)
	return store, nil
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
// size beyond which a commit is a sync point, bounding log growth and
// recovery time.
const walCheckpointBytes = 64 << 20

// syncEveryCommits bounds the commits logged past the last sync point: the
// commit that would log one more is a sync point instead. It bounds the
// replay at the next Open, and how many dirty pages one sync point writes
// (storage.FileDisk.SealDue bounds the pages held back from reuse).
const syncEveryCommits = 1024

// slowLogSize is how many slow queries the ring keeps, oldest evicted first.
const slowLogSize = 64

// retireBatch is one publish's worth of deferred page frees: pages that
// snapshots with sequence >= seq no longer reference.
type retireBatch struct {
	seq   uint64
	pages []storage.PageID
}

// syncPoint seals next into the file: bulk-load next's node table if it
// has none yet, write every dirty pool frame to its slot, write next's
// catalog copy-on-write into a fresh chain if it changed, and seal
// (storage.FileDisk.Seal) — under a new superblock, durable on return, the
// log emptied. The sealed free list also names every page in the
// deferred-free queue, which only pinned older versions still read: a
// crash frees them. next is unpublished or already carries its node table
// (see commitCurrent). The flush holds stmtMu exclusively, so it also
// writes the pages readers pin at that moment: between sync points a
// published version's pages stay dirty in the pool. Callers hold writeMu.
func (db *DB) syncPoint(next *Snapshot) (err error) {
	if next.env.Nodes == nil {
		// The first commit since documents were bulk-loaded. Should the
		// commit fail, the table's pages go back to the free list with it.
		if next.env.Nodes, err = index.BulkLoadNodeTable(db.pool, db.dict, next.store); err != nil {
			return fmt.Errorf("engine: building the node table: %w", err)
		}
		defer func() {
			if err != nil {
				_ = next.env.Nodes.WalkPages(db.pool.Free)
				next.env.Nodes = nil
			}
		}()
	}
	db.stmtMu.Lock()
	err = db.pool.FlushPinned()
	db.stmtMu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: sync point flush: %w", err)
	}
	if blob := encodeCatalog(next); !bytes.Equal(blob, db.catalogBlob) {
		pages, err := writeCatalogChain(db.fdisk, blob)
		if err != nil {
			return err
		}
		for _, id := range db.catalogPages {
			_ = db.fdisk.Free(id) // a refused free leaks the page, which is safe
		}
		db.catalogPages, db.catalogBlob = pages, blob
	}
	var retired []storage.PageID
	for _, b := range db.retired {
		retired = append(retired, b.pages...)
	}
	if err := db.fdisk.Seal(db.catalogPages[0], retired); err != nil {
		return fmt.Errorf("engine: sync point: %w", err)
	}
	return nil
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
	db.frontier = storage.PageID(db.fdisk.NumPages())
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

// collectRetired drains into the deferred-free queue the pages next's COW
// index clones stopped referencing and every page of the structures next
// dropped, tagged with next's sequence: only snapshots older than next can
// still read them. A commit that fails after it takes the batch back off
// the queue (commitPublish): an aborted commit discards next, and what it
// replaced stays live in the current version. Callers hold writeMu.
func (db *DB) collectRetired(next *Snapshot) {
	var pages []storage.PageID
	for _, m := range next.maintained() {
		pages = append(pages, m.TakeRetired()...)
	}
	db.retire(next.seq, pages, next.dropped)
	next.dropped = nil
}

// retire queues pages plus every page of the dropped structures as one
// deferred-free batch, freed once no pinned snapshot older than seq
// remains. Callers hold writeMu.
func (db *DB) retire(seq uint64, pages []storage.PageID, dropped []pageWalker) {
	for _, d := range dropped {
		// A failed walk leaks the rest of d's pages, which is always safe.
		_ = d.WalkPages(func(id storage.PageID) error {
			pages = append(pages, id)
			return nil
		})
	}
	if len(pages) > 0 {
		db.retired = append(db.retired, retireBatch{seq: seq, pages: pages})
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

// commitPublish commits next, publishes it, releases the writer lock, and
// finally waits for durability — the fsync wait happens outside writeMu,
// which is what lets N concurrent committers share one fsync.
//
// A commit with a logged record (rec, a transaction's statements, see
// txlog.go) appends just that record: its pages stay dirty in the pool,
// and a crash replays the statements. The commit is a sync point
// (syncPoint) instead when it has no record (Build), when next has no
// node table yet (the first commit after bulk loads), or when syncDue says
// the log or the pages held back from reuse have reached their bound.
// docs/all are the commit's write-set, logged at publish for transaction
// validation. The caller must hold writeMu and must not touch it
// afterwards.
func (db *DB) commitPublish(next *Snapshot, rec []byte, docs []int64, all bool) error {
	start := time.Now()
	// Free what drained snapshots no longer read, and queue what next
	// retires, before the commit: a sync point's free list carries both.
	db.reclaimRetired()
	queued := len(db.retired)
	db.collectRetired(next)
	var seq int64
	var err error
	if rec != nil && next.env.Nodes != nil && !db.syncDue() {
		seq, err = db.fdisk.CommitLogical(rec)
	} else {
		err = db.syncPoint(next) // durable on return: seq 0 needs no fsync
	}
	if err != nil {
		db.retired = db.retired[:queued]
		db.writeMu.Unlock()
		return db.noteCommitErr(err)
	}
	db.publish(next, docs, all)
	db.writeMu.Unlock()
	// The snapshot is already published: if this fsync fails and poisons
	// the disk, the state served in read-only mode includes this commit —
	// applied, just never durable (see docs/FAULTS.md).
	err = db.noteCommitErr(db.fdisk.SyncTo(seq))
	db.reg.CommitLatency.Observe(time.Since(start).Nanoseconds())
	return err
}

// syncDue reports whether the next commit must be a sync point: the log
// past the last one holds syncEveryCommits commits or more than
// CheckpointWALBytes, or the device holds back too many freed pages
// (storage.FileDisk.SealDue). Callers hold writeMu.
func (db *DB) syncDue() bool {
	commits, bytes := db.fdisk.LogSinceSync()
	return commits >= syncEveryCommits || bytes > db.cfg.CheckpointWALBytes || db.fdisk.SealDue()
}

// Checkpoint runs a sync point sealing the current state into the file —
// every logged commit included, the log emptied, the file's all-free tail
// trimmed — so the next open replays nothing.
func (db *DB) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writeGate(); err != nil {
		return err
	}
	db.reclaimRetired() // drained snapshots' pages ride this sync point
	return db.noteCommitErr(db.commitCurrent())
}

// commitCurrent runs a sync point sealing the current state — the commit
// of Checkpoint, Close and a Backup that needs one. A current
// snapshot without a node table (documents bulk-loaded and not committed
// since) is never changed after publication:
// a successor is committed instead, whose syncPoint bulk-loads the
// table, and published with an empty write-set, as it changes no data.
// Callers hold writeMu.
func (db *DB) commitCurrent() error {
	cur := db.current.Load()
	if cur.env.Nodes != nil {
		return db.syncPoint(cur)
	}
	next := cur.clone()
	err := db.syncPoint(next)
	if err == nil {
		db.publish(next, nil, false)
	}
	return err
}

// Close runs a final sync point and closes the database, releasing an
// in-memory database's files; a closed DB must not be used further.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.writeGate() != nil {
		// Degraded: nothing new can be made durable (the disk is
		// poisoned), so just release the handles. The file still holds the
		// last durable state; reopening recovers it.
		return db.fdisk.Close()
	}
	db.releaseAtClose()
	db.reclaimRetired() // the last commits' deferred frees ride the close's sync point
	if err := db.commitCurrent(); err != nil {
		db.fdisk.Close()
		return db.noteCommitErr(err)
	}
	return db.fdisk.Close()
}

// releaseAtClose lets go of what only this open database holds on to: the
// AS OF window's standing pins, and the pages of a Containment index,
// which has no catalog record, so nothing reopens it. Both are left to the
// deferred-free queue — the Containment pages tagged with the current
// version, as only older versions (pinned ones block the free) share
// them — and the reclaim before the close commit frees them. Callers hold
// writeMu.
func (db *DB) releaseAtClose() {
	db.retainMu.Lock()
	for _, s := range db.retained {
		s.pins.Add(-1)
	}
	db.retained = nil
	db.retainMu.Unlock()
	cur := db.current.Load()
	if c := cur.env.Containment; c != nil {
		db.retire(cur.seq, nil, []pageWalker{c})
	}
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
	base, err := db.storeOf(cur)
	if err != nil {
		return err
	}
	next := cur.clone()
	if next.env.Nodes != nil {
		// A committed store grows by a bulk load: the next commit
		// bulk-loads a node table for the whole store, as the first one did.
		next.dropped = append(next.dropped, next.env.Nodes)
		next.env.Nodes = nil
	}
	store := base.CloneShallow()
	// Ids come from the global allocator (shared with transactions), then
	// the pre-numbered tree is attached; the store counter follows the
	// allocator so both agree on what is handed out.
	db.numberTree(doc.Root)
	if err := store.RestoreDocument(doc); err != nil {
		return err
	}
	store.SetNextID(db.nextNodeID.Load())
	next.setStore(store)
	next.nextID = store.NextID()
	next.successorStats()
	if st := next.env.Stats; st != nil {
		st.Apply(store, db.dict, doc.Root, +1)
	}
	db.collectRetired(next)
	db.publish(next, nil, false)
	return nil
}

// Store exposes the current snapshot's XML store, loading it if need be;
// nil if its node table cannot be read (Oracle reads and ViewNodes report
// why).
func (db *DB) Store() *xmldb.Store {
	s := db.pin()
	defer db.unpin(s)
	store, _ := db.storeOf(s)
	return store
}

// Dict exposes the shared designator dictionary.
func (db *DB) Dict() *pathdict.Dict { return db.dict }

// Env exposes the current snapshot's planner environment, statistics
// materialised (for white-box tests and benches; treat it as read-only —
// copy before tweaking knobs).
func (db *DB) Env() *plan.Env { return db.current.Load().queryEnv() }

// Pool exposes the shared buffer pool.
func (db *DB) Pool() *storage.Pool { return db.pool }

// Build constructs the given index structures, publishing a successor
// snapshot that carries them (plus fresh statistics) at a sync point.
// Indices already built are rebuilt from scratch; other index handles
// carry over.
func (db *DB) Build(kinds ...index.Kind) error {
	if db.cfg.Path != "" && db.cfg.PathsOptions.KeepHead != nil && slices.Contains(kinds, index.KindDataPaths) {
		return ErrPrunedNotPersistable
	}
	db.writeMu.Lock()
	if err := db.writeGate(); err != nil {
		db.writeMu.Unlock()
		return err
	}
	// Free what drained snapshots no longer read before building, so the
	// build draws its pages from the free list — the previous rebuild's
	// replaced structures among them — before it grows the file.
	db.reclaimRetired()
	cur := db.current.Load()
	store, err := db.storeOf(cur)
	if err != nil {
		db.writeMu.Unlock()
		return err
	}
	next := cur.clone()
	next.env.Stats = stats.Collect(store, db.dict)
	next.statsReady.Store(true)
	site := index.Site{Pool: db.pool, Store: store, Dict: db.dict, Ptab: db.ptab, Opts: db.cfg.PathsOptions}
	for _, k := range kinds {
		built, err := index.Build(k, site)
		if err != nil {
			db.writeMu.Unlock()
			return fmt.Errorf("engine: building %v: %w", k, err)
		}
		if old, ok := next.env.Install(k, built).(pageWalker); ok {
			next.dropped = append(next.dropped, old)
		}
	}
	// all=true: a rebuild touches the whole database, so every in-flight
	// transaction spanning it conflicts (conservative — Build normally runs
	// during setup, not under concurrent transactions).
	return db.commitPublish(next, nil, nil, true)
}

// ErrPrunedNotPersistable rejects a DATAPATHS built with HeadId pruning
// (index.PathsOptions.KeepHead) where it would be written to a file — Build
// on a file-backed database, or Backup of an in-memory one. The pruning
// predicate is a function over node ids: the file could not record it, and
// a reopened index missing the pruned heads' rows would answer bound probes
// wrongly. Pruning is for in-memory databases only.
var ErrPrunedNotPersistable = errors.New("engine: a HeadId-pruned DATAPATHS cannot be written to a file; build it in memory")

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
// internally on a fresh base, without limit — first committer wins, so some
// contender always makes progress — and this call never surfaces
// ErrConflict. The call returns once the commit is durable; concurrent
// committers share their WAL fsync (group commit). sub is numbered from the
// global allocator; the caller's tree is the template and stays unattached
// (read ids from it as before).
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
// The store and its nodes must not be retained after fn returns. It fails,
// without calling fn, when the store has to be read from the node table and
// cannot be.
func (db *DB) ViewNodes(fn func(*xmldb.Store)) error {
	s := db.pin()
	defer db.unpin(s)
	store, err := db.storeOf(s)
	if err != nil {
		return err
	}
	fn(store)
	return nil
}

// NodeCount returns the number of element/attribute nodes in the current
// snapshot. A snapshot that has not loaded its store answers from its
// statistics, which count every node once.
func (db *DB) NodeCount() int {
	s := db.current.Load()
	if store := s.Store(); store != nil {
		return store.NodeCount()
	}
	return int(s.env.Stats.NodeCount())
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

// Prepare returns the histograms that attribute each statement's prepare
// (store, statistics, maintenance per kind, node table, pages copied per
// tree).
func (db *DB) Prepare() *PrepareHists { return &db.prep }

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

// Device exposes the page device, which carries the fault injector when
// one is configured.
func (db *DB) Device() *storage.FileDisk { return db.fdisk }

// DeviceStats returns cumulative device I/O counters, including the WAL
// append/fsync and sync point work.
func (db *DB) DeviceStats() storage.DeviceStats { return db.fdisk.DeviceStats() }

// PoolStats returns buffer pool counters.
func (db *DB) PoolStats() storage.PoolStats { return db.pool.Stats() }
