// Optimistic multi-statement transactions over the snapshot/COW substrate.
//
// A Tx pins a base snapshot and lazily builds a private successor off it:
// the store is cloned shallowly (documents privatized copy-on-write as
// statements touch them, see xmldb.Store.CloneShallow/Privatize), the
// incrementally maintainable indices are cloned per-page copy-on-write
// (btree.Tree.CloneCOW), and every Insert/Delete is additionally recorded
// as a logical operation with pre-assigned node ids from the engine's
// global allocator. Queries inside the transaction read the private
// successor; queries outside keep reading the published chain, which the
// transaction never touches.
//
// Commit runs the prepare/validate/publish protocol:
//
//   - validate: the transaction's write-set (the top-level subtree ids —
//     "documents" — it privatized) is checked against every commit
//     published since its base. Overlap, or a Build-style whole-database
//     commit, fails the transaction with ErrConflict; nothing is ever
//     half-published.
//   - replay: when the chain advanced but nothing conflicts, the
//     transaction's logical operations are re-applied onto the newest
//     snapshot — outside the writer lock, pinning that snapshot so the
//     deferred-free queue cannot reclaim pages under the replay. The
//     pre-assigned node ids make the replayed result identical to the
//     first application, so ids returned to the caller before Commit stay
//     valid. This is the merge of disjoint successor versions: the store
//     merge is structural (shared documents by pointer, the write-set's
//     documents rebuilt), the index merge is logical re-application onto
//     the newer tree version.
//   - publish: with the writer lock held and the chain tip unchanged, the
//     transaction's statements are appended as one WAL logical record
//     (riding the existing group-commit fsync path — one durable record per
//     transaction, not per statement; a commit that is a sync point logs
//     nothing and seals its pages under a new superblock instead) and the
//     successor becomes current with a single pointer swap. Its pages stay
//     in the buffer pool until a sync point; a crash before one replays
//     the record through applyOp at Open.
//
// Abandoned prepared versions — replaced by a replay, rolled back, or
// conflicted — return their freshly allocated B+-tree pages straight to
// the device free list (TakeFresh): no published version can reference
// them.
package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// ErrConflict is returned by Tx.Commit when the write-set validation
// fails: another transaction committed an overlapping document (or a
// whole-database operation like Build ran) after this transaction's base
// snapshot. The database is unchanged — nothing of the transaction is
// visible, and the prepared version has been discarded. Conflicts are
// retryable by construction: re-run the transaction body on a fresh Begin
// (or use DB.Update, which does exactly that). errors.Is-match it; the
// wrapped chain names the first conflicting document.
var ErrConflict = errors.New("engine: transaction write-set conflict")

// ErrTxDone is returned by operations on a transaction that was already
// committed or rolled back.
var ErrTxDone = errors.New("engine: transaction already finished")

// ErrSnapshotRetired is returned by AS OF reads whose sequence number is
// outside the retained window (see Config.RetainSnapshots) or ahead of the
// published chain.
var ErrSnapshotRetired = errors.New("engine: no retained snapshot at this sequence")

// CommitStage identifies a boundary of the commit protocol; the crash
// harness installs a hook (SetCommitHook) that captures device images at
// each stage to verify a transaction is all-or-nothing across recovery.
type CommitStage int

const (
	// CommitStagePrepared: the private successor is fully built; nothing
	// has been validated and nothing is logged or sealed. A crash here
	// must recover to a state without any trace of the transaction.
	CommitStagePrepared CommitStage = iota
	// CommitStageValidated: the write-set validated cleanly under the
	// writer lock; the statements are not yet logged, nor the pages
	// sealed. A crash here must still recover to a state without the
	// transaction.
	CommitStageValidated
	// CommitStagePublished: the statements' log record is appended (or
	// the sync point sealed) and the successor is the current snapshot.
	// Recovery must replay the whole transaction — every statement or
	// none.
	CommitStagePublished
)

// String names the stage for test diagnostics.
func (s CommitStage) String() string {
	switch s {
	case CommitStagePrepared:
		return "prepared"
	case CommitStageValidated:
		return "validated"
	case CommitStagePublished:
		return "published"
	}
	return "unknown"
}

// SetCommitHook installs fn at the commit protocol's stage boundaries
// (nil uninstalls). Install before writers start; used by the crash
// harness to capture kill-point images.
func (db *DB) SetCommitHook(fn func(CommitStage)) {
	if fn == nil {
		db.commitHook.Store(nil)
		return
	}
	db.commitHook.Store(&fn)
}

func (db *DB) commitStage(s CommitStage) {
	if fn := db.commitHook.Load(); fn != nil {
		(*fn)(s)
	}
}

// txOp is one logical statement of a transaction, replayable onto any
// base: the subtree template carries pre-assigned node ids, so a replay
// produces exactly the ids the caller already saw.
type txOp struct {
	insert   bool
	parentID int64       // insert: attach under this node
	sub      *xmldb.Node // insert: numbered, unattached template
	nodeID   int64       // delete: root of the subtree to remove
}

// Tx is one multi-statement transaction. It is not safe for concurrent
// use by multiple goroutines (like database/sql.Tx); any number of
// transactions may run concurrently with each other and with queries.
//
// Reads inside the transaction (Read) observe the transaction's own
// uncommitted statements plus its frozen base snapshot; they never observe
// other transactions' uncommitted work. Every transaction must end in
// exactly one Commit or Rollback.
type Tx struct {
	db   *DB
	base *Snapshot // pinned at Begin
	next *Snapshot // private successor, built lazily on the first write

	ops      []txOp
	reserved [][2]int64 // node-id ranges taken from the global allocator
	broken   error      // a failed statement left the successor inconsistent
	done     bool
}

// Begin starts a transaction against the current snapshot. The returned
// Tx must be finished with Commit or Rollback; until then it pins its
// base version (holding the deferred page frees of later commits, like
// any long-running reader).
func (db *DB) Begin() *Tx {
	return &Tx{db: db, base: db.pin()}
}

// BaseSeq returns the sequence number of the transaction's base snapshot.
func (tx *Tx) BaseSeq() uint64 { return tx.base.seq }

// snapshot is the version reads inside the transaction see.
func (tx *Tx) snapshot() *Snapshot {
	if tx.next != nil {
		return tx.next
	}
	return tx.base
}

// successor makes a private successor of base — the one place a
// transaction's version is made, for the first write and for every commit
// replay: a shallow store clone (root-to-target spines privatize on
// demand), copy-on-write statistics and page-COW clones of the maintained
// indices and the node table. The COW frontier is the device page count
// now — a conservative superset of every page base (or any older snapshot) can
// reference; pages other in-flight transactions allocate beyond it never
// enter this transaction's trees, so treating them as "owned" is moot.
func (tx *Tx) successor(base *Snapshot) (*Snapshot, error) {
	store, err := tx.db.storeOf(base)
	if err != nil {
		return nil, err
	}
	next := base.clone()
	next.setStore(store.CloneShallow())
	next.successorStats()
	next.cowIndices(storage.PageID(tx.db.fdisk.NumPages()))
	return next, nil
}

// view returns the store the transaction's statements see, loading its
// base's if need be.
func (tx *Tx) view() (*xmldb.Store, error) {
	if tx.next != nil {
		return tx.next.store, nil
	}
	return tx.db.storeOf(tx.base)
}

// ensureNext builds the private successor on the first write.
func (tx *Tx) ensureNext() error {
	if tx.next == nil {
		next, err := tx.successor(tx.base)
		if err != nil {
			return err
		}
		tx.next = next
	}
	return nil
}

// numberTree assigns pre-order ids to every node of root from the global
// allocator. Reserving the whole range with one atomic add keeps
// concurrent preparers collision-free, and the assignment survives any
// number of commit replays unchanged.
func (db *DB) numberTree(root *xmldb.Node) (lo, hi int64) {
	n := int64(countNodes(root))
	hi = db.nextNodeID.Add(n)
	id := hi - n
	lo = id
	var assign func(*xmldb.Node)
	assign = func(nd *xmldb.Node) {
		nd.ID = id
		id++
		for _, c := range nd.Children {
			assign(c)
		}
	}
	assign(root)
	return lo, hi
}

// releaseIDs best-effort returns the transaction's reserved id ranges to
// the allocator — possible only while the allocator has not moved on
// (compare-and-swap), so concurrent reservations are never clawed back.
// Called when the reserved ids can never be used again: rollback, or a
// non-conflict failure (a conflicted template may be retried and must
// keep its ids). Ranges that cannot be returned are simply skipped —
// a gap in the id space, nothing more.
func (tx *Tx) releaseIDs() {
	for i := len(tx.reserved) - 1; i >= 0; i-- {
		r := tx.reserved[i]
		if !tx.db.nextNodeID.CompareAndSwap(r[1], r[0]) {
			break
		}
		tx.reserved = tx.reserved[:i]
	}
}

func countNodes(n *xmldb.Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// cloneNumbered deep-copies a numbered template for attachment, so the
// template stays pristine for commit replays (and the caller's handle is
// never wired into any store).
func cloneNumbered(n *xmldb.Node) *xmldb.Node {
	c := &xmldb.Node{ID: n.ID, Label: n.Label, Value: n.Value, HasValue: n.HasValue}
	if len(n.Children) > 0 {
		c.Children = make([]*xmldb.Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = cloneNumbered(ch)
		}
	}
	return c
}

// applyOp applies one logical operation to a prepared successor — store,
// statistics, maintained indices and node table: the initial application and every
// commit replay go through this single path, so they cannot diverge. Each
// phase is timed into DB.Prepare.
func (tx *Tx) applyOp(next *Snapshot, op *txOp) error {
	// Statements write pool pages outside writeMu; a sync point's flush
	// must not run under them (see DB.stmtMu).
	tx.db.stmtMu.RLock()
	defer tx.db.stmtMu.RUnlock()
	h := &tx.db.prep
	store, st := next.store, next.env.Stats
	start := time.Now()
	if op.insert {
		parent, err := store.Privatize(op.parentID)
		if err != nil {
			return err
		}
		cp := cloneNumbered(op.sub)
		if err := store.AttachNumberedSubtree(parent, cp); err != nil {
			return err
		}
		next.nextID = store.NextID()
		h.Store.Observe(time.Since(start).Nanoseconds())
		if st != nil {
			start = time.Now()
			st.Apply(store, tx.db.dict, cp, +1)
			h.Stats.Observe(time.Since(start).Nanoseconds())
		}
		return next.maintain(h, func(m index.Lifecycle) error { return m.InsertSubtree(store, cp) })
	}
	n, err := store.Privatize(op.nodeID)
	if err != nil {
		return err
	}
	privatized := time.Since(start)
	// Statistics and index rows are derived from the root path, so remove
	// them while the subtree is still connected.
	if st != nil {
		start := time.Now()
		st.Apply(store, tx.db.dict, n, -1)
		h.Stats.Observe(time.Since(start).Nanoseconds())
	}
	if err := next.maintain(h, func(m index.Lifecycle) error { return m.DeleteSubtree(store, n) }); err != nil {
		return err
	}
	start = time.Now()
	err = store.DetachSubtree(n)
	h.Store.Observe((privatized + time.Since(start)).Nanoseconds())
	return err
}

// PrepareHists attributes the prepare of every statement — each
// Tx.applyOp, for its first application, a commit replay or a replay at
// Open — to its phases. Times are in nanoseconds per statement. Every
// histogram is allocated on its first sample, so a database that is only
// read carries none.
type PrepareHists struct {
	Store     obs.LazyHistogram // privatize the spine, attach or detach the subtree
	Stats     obs.LazyHistogram // the statistics delta
	NodeTable obs.LazyHistogram // node-table maintenance
	// Maintain is the incremental maintenance of each index kind.
	Maintain [index.NumKinds]obs.LazyHistogram
	// Copied counts the shared pages each tree copied on write for the
	// statement, by index kind; the node table's is at index.NumKinds.
	Copied [index.NumKinds + 1]obs.LazyHistogram
}

// observe runs op on m, recording its time into t and the pages it copied
// into c.
func (h *PrepareHists) observe(t, c *obs.LazyHistogram, m index.Lifecycle, op func(index.Lifecycle) error) error {
	copies, start := m.Copies(), time.Now()
	err := op(m)
	t.Observe(time.Since(start).Nanoseconds())
	c.Observe(int64(m.Copies() - copies))
	return err
}

// Insert attaches sub (an unattached tree, e.g. a parsed fragment's root)
// under the node with id parentID, visible to this transaction's reads
// immediately and to everyone else only after Commit. Node ids are
// assigned now — sub.ID is valid as soon as Insert returns and stays
// valid across commit replays — from an allocator shared by all
// concurrent transactions. ROOTPATHS/DATAPATHS are maintained
// incrementally; the other index structures are dropped from the
// transaction's version (rebuild with Build if needed).
func (tx *Tx) Insert(parentID int64, sub *xmldb.Node) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.broken != nil {
		return tx.broken
	}
	if err := tx.db.writeGate(); err != nil {
		return err
	}
	if sub == nil {
		return fmt.Errorf("engine: insert of nil subtree")
	}
	view, err := tx.view()
	if err != nil {
		return err
	}
	if view.NodeByID(parentID) == nil {
		return fmt.Errorf("engine: no node with id %d", parentID)
	}
	if sub.ID != 0 && view.NodeByID(sub.ID) != nil {
		return fmt.Errorf("xmldb: subtree already attached")
	}
	if err := tx.ensureNext(); err != nil {
		return err
	}
	if sub.ID == 0 {
		lo, hi := tx.db.numberTree(sub)
		tx.reserved = append(tx.reserved, [2]int64{lo, hi})
	}
	op := txOp{insert: true, parentID: parentID, sub: sub}
	if err := tx.applyOp(tx.next, &op); err != nil {
		tx.broken = err
		return err
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// Delete removes the node with the given id and its whole subtree within
// the transaction. The node may be one this transaction inserted.
func (tx *Tx) Delete(nodeID int64) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.broken != nil {
		return tx.broken
	}
	if err := tx.db.writeGate(); err != nil {
		return err
	}
	view, err := tx.view()
	if err != nil {
		return err
	}
	if view.NodeByID(nodeID) == nil {
		return fmt.Errorf("engine: no node with id %d", nodeID)
	}
	if err := tx.ensureNext(); err != nil {
		return err
	}
	op := txOp{nodeID: nodeID}
	if err := tx.applyOp(tx.next, &op); err != nil {
		tx.broken = err
		return err
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// abandon discards a prepared successor: the B+-tree pages only it ever
// referenced go straight back to the device free list. Best-effort — a
// page the pool refuses to free is leaked, never double-allocated.
func (tx *Tx) abandon(s *Snapshot) {
	if s == nil {
		return
	}
	for _, m := range s.maintained() {
		for _, id := range m.TakeFresh() {
			_ = tx.db.pool.Free(id)
		}
	}
}

// Rollback discards the transaction: nothing it did is visible anywhere,
// and its private pages are returned to the free list. Safe to call on a
// finished transaction (no-op), so `defer tx.Rollback()` is always safe.
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.abandon(tx.next)
	tx.next = nil
	tx.releaseIDs()
	tx.db.unpin(tx.base)
}

// Commit validates the transaction's write-set against every commit
// published since its base and, when nothing overlaps, publishes all its
// statements atomically under one WAL logical record (one group-committed
// fsync for the whole transaction), or seals them at a sync point. When
// the chain advanced without conflicts, the statements are replayed onto
// the newest version first — commit never blocks other writers while
// replaying.
//
// On conflict it returns ErrConflict and the database is untouched;
// Commit never retries on its own (DB.Update does). A read-only
// transaction commits as a no-op. After Commit the transaction is done,
// whatever the outcome.
func (tx *Tx) Commit() error {
	db := tx.db
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer db.unpin(tx.base)
	if tx.broken != nil {
		tx.abandon(tx.next)
		tx.releaseIDs()
		return tx.broken
	}
	if tx.next == nil || len(tx.ops) == 0 {
		// Read-only (or write-free): publishing would pointlessly drop the
		// non-incremental indices the successor never cloned.
		tx.abandon(tx.next)
		return nil
	}
	start := time.Now()
	writeSet := tx.next.store.WriteSet()
	db.commitStage(CommitStagePrepared)

	prepared, preparedBase := tx.next, tx.base
	var replayPin *Snapshot // extra pin held on preparedBase when it isn't tx.base
	fail := func(err error) error {
		tx.abandon(prepared)
		if replayPin != nil {
			db.unpin(replayPin)
		}
		return err
	}
	for {
		db.writeMu.Lock()
		if err := db.writeGate(); err != nil {
			db.writeMu.Unlock()
			tx.releaseIDs()
			return fail(err)
		}
		cur := db.current.Load()
		if cur == preparedBase {
			err := tx.publish(prepared, writeSet, start) // unlocks writeMu
			if replayPin != nil {
				db.unpin(replayPin)
			}
			return err
		}
		if err := db.conflictsSince(tx.base.seq, writeSet); err != nil {
			db.writeMu.Unlock()
			db.counters.CountTxConflict()
			return fail(err)
		}
		// The chain advanced but nothing overlaps: replay onto the new tip,
		// outside the writer lock. Pin the tip first (valid here — it is
		// current, hence not superseded, while we hold writeMu) so the
		// deferred-free queue cannot reclaim its pages mid-replay.
		cur.pins.Add(1)
		db.writeMu.Unlock()
		replayed, err := tx.replayOnto(cur)
		tx.abandon(prepared)
		if replayPin != nil {
			db.unpin(replayPin)
		}
		prepared, preparedBase, replayPin = replayed, cur, cur
		if err != nil {
			// Replay application failed even though validation passed —
			// surface it as a conflict so callers can retry on a fresh base.
			db.counters.CountTxConflict()
			return fail(fmt.Errorf("%w: replay failed: %w", ErrConflict, err))
		}
	}
}

// publish finishes a commit — the one tail of every commit, explicit,
// Update's or an implicit operation's. The caller holds writeMu (released
// here) with prepared's base still current, so validation has passed: the
// transaction's statements are logged as one record (see txlog.go) —
// unless the commit is a sync point, which seals prepared's pages instead —
// prepared, statistics included, becomes the current snapshot, and the
// commit is counted and timed from start.
func (tx *Tx) publish(prepared *Snapshot, writeSet []int64, start time.Time) error {
	db := tx.db
	db.commitStage(CommitStageValidated)
	rec := appendTxRecord(nil, prepared.nextID, tx.ops)
	if err := db.commitPublish(prepared, rec, writeSet, false); err != nil { // unlocks writeMu
		if db.current.Load() != prepared {
			// The commit never made it; nothing published. The ids
			// can be clawed back: a non-conflict failure is final, the
			// template will not be retried.
			tx.abandon(prepared)
			tx.releaseIDs()
		}
		// Otherwise published but the group fsync failed (poisoned
		// device): the state being served includes this commit — applied,
		// just never durable. Do not abandon.
		return err
	}
	db.counters.CountTxCommit()
	db.reg.TxnLatency.Observe(time.Since(start).Nanoseconds())
	db.commitStage(CommitStagePublished)
	return nil
}

// replayOnto re-applies the transaction's logical operations onto a newer
// base snapshot, producing a fresh prepared successor. The caller holds a
// pin on base.
func (tx *Tx) replayOnto(base *Snapshot) (*Snapshot, error) {
	next, err := tx.successor(base)
	if err != nil {
		return nil, err
	}
	for i := range tx.ops {
		if err := tx.applyOp(next, &tx.ops[i]); err != nil {
			return next, err
		}
	}
	return next, nil
}

// commitLogCap bounds the in-memory commit log used for write-set
// validation. A transaction whose base fell behind the log's floor
// conservatively conflicts; 4096 commits of slack makes that unreachable
// for any real transaction lifetime.
const commitLogCap = 4096

// commitRecord is one published commit's conflict information.
type commitRecord struct {
	seq  uint64
	all  bool    // conflicts with everything (reserved for whole-database ops)
	docs []int64 // sorted top-level subtree ids written
}

// logCommit records a published version's write-set for later validation.
// Every publish logs exactly one record, so sequence numbers in the log
// are contiguous. Callers hold writeMu.
func (db *DB) logCommit(seq uint64, docs []int64, all bool) {
	db.commitLog = append(db.commitLog, commitRecord{seq: seq, all: all, docs: docs})
	if len(db.commitLog) > commitLogCap {
		drop := len(db.commitLog) - commitLogCap
		db.commitLog = append(db.commitLog[:0], db.commitLog[drop:]...)
	}
}

// conflictsSince validates a write-set against every commit published
// after baseSeq, returning an ErrConflict-wrapping error on overlap (or
// when the window outgrew the log — conservative). Callers hold writeMu.
func (db *DB) conflictsSince(baseSeq uint64, writeSet []int64) error {
	cur := db.current.Load()
	if cur.seq == baseSeq {
		return nil
	}
	if len(db.commitLog) == 0 || db.commitLog[0].seq > baseSeq+1 {
		return fmt.Errorf("%w: base snapshot %d is beyond the validation window", ErrConflict, baseSeq)
	}
	for i := len(db.commitLog) - 1; i >= 0; i-- {
		rec := &db.commitLog[i]
		if rec.seq <= baseSeq {
			break
		}
		if rec.all {
			return fmt.Errorf("%w: a whole-database operation committed at seq %d", ErrConflict, rec.seq)
		}
		if doc, ok := overlaps(rec.docs, writeSet); ok {
			return fmt.Errorf("%w: document %d also written by commit seq %d", ErrConflict, doc, rec.seq)
		}
	}
	return nil
}

// overlaps reports the first common element of two sorted id slices.
func overlaps(a, b []int64) (int64, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return 0, false
}

// Update runs fn inside a transaction: committed when fn returns nil,
// rolled back when it errors, and — unlike a bare Begin/Commit — retried
// on ErrConflict up to the given number of retries (negative = unlimited).
// fn must be idempotent up to its transaction (it may run several times)
// and must not call Commit or Rollback itself.
func (db *DB) Update(fn func(*Tx) error, retries int) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			db.counters.CountTxRetry()
		}
		tx := db.Begin()
		if err := fn(tx); err != nil {
			tx.Rollback()
			return err
		}
		err := tx.Commit()
		if err == nil || !errors.Is(err, ErrConflict) {
			return err
		}
		if retries >= 0 && attempt >= retries {
			return err
		}
	}
}
