package twigdb

import (
	"repro/internal/engine"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Transaction error sentinels. All are errors.Is-matchable through any
// wrapping the engine adds (the wrapped chain carries specifics such as
// the first conflicting document id).
var (
	// ErrConflict is returned by Tx.Commit when another transaction
	// committed an overlapping document between this transaction's Begin
	// and its Commit (first-committer-wins optimistic concurrency, at
	// document granularity — the top-level subtrees a transaction's
	// statements touched). The database is unchanged: nothing of the
	// transaction was published, so a conflicted transaction can always be
	// retried safely — re-run the whole body against a fresh Begin, or use
	// DB.Update, which does the retry loop (with Options.TxRetries)
	// for you. Single-statement Insert/Delete retry internally and never
	// surface this error.
	ErrConflict = engine.ErrConflict

	// ErrTxDone is returned by any operation on a transaction that was
	// already committed or rolled back.
	ErrTxDone = engine.ErrTxDone

	// ErrSnapshotRetired is returned by QueryAsOf when the requested
	// sequence number is outside the retained window (Options.
	// RetainSnapshots) or ahead of the current version.
	ErrSnapshotRetired = engine.ErrSnapshotRetired
)

// Tx is a multi-statement transaction: any number of Insert/Delete/Query
// calls against a private, isolated version of the database, made visible
// to other sessions atomically — all statements or none — by Commit.
//
// Concurrency is optimistic: transactions never block each other while
// they run (readers and other writers keep going), and Commit validates
// the transaction's write-set — the documents it touched — against
// everything committed since its Begin. Disjoint transactions commit
// concurrently; overlapping ones fail with ErrConflict and can be
// retried. A Tx is not safe for concurrent use by multiple goroutines.
//
// Every Tx must end in exactly one Commit or Rollback; `defer
// tx.Rollback()` after Begin is the usual idiom (Rollback after Commit is
// a no-op). An open transaction pins its base version, holding deferred
// page reclamation of later commits, like any long-running reader.
type Tx struct {
	db  *DB
	etx *engine.Tx
}

// Begin starts a transaction against the current version of the database.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, etx: db.eng.Begin()}
}

// Insert parses xmlFragment as a standalone element and attaches it as
// the last child of the node with id parentID, exactly like DB.Insert but
// inside the transaction: visible to this transaction's queries
// immediately, to everyone else only after Commit. The returned id is
// assigned now and remains valid after Commit (whatever other
// transactions commit in between).
func (tx *Tx) Insert(parentID int64, xmlFragment string) (int64, error) {
	doc, err := xmldb.ParseString(xmlFragment)
	if err != nil {
		return 0, err
	}
	if err := tx.etx.Insert(parentID, doc.Root); err != nil {
		return 0, err
	}
	return doc.Root.ID, nil
}

// Delete removes the node with the given id and its whole subtree within
// the transaction (it may be a node this transaction inserted).
func (tx *Tx) Delete(nodeID int64) error {
	return tx.etx.Delete(nodeID)
}

// Query evaluates a query against the transaction's view — its own
// uncommitted statements on top of the frozen state it began from — under
// the cost-based planner. It never sees other transactions' uncommitted
// work.
func (tx *Tx) Query(q string) (*Result, error) { return tx.QueryWith(Auto, q) }

// QueryWith is Query under an explicit strategy (Auto re-enables the
// planner; Oracle runs the naive in-memory matcher).
func (tx *Tx) QueryWith(strat Strategy, q string) (*Result, error) {
	return tx.db.query(tx.etx.Read, strat, q, false)
}

// Commit atomically publishes every statement of the transaction, or none:
// on ErrConflict (another transaction committed an overlapping document
// first) the database is untouched and the work can be retried; on nil
// every statement is visible to all sessions and — on a file-backed
// database — durable under one write-ahead-log commit record, fsynced
// once for the whole transaction (shared with concurrent committers by
// group commit). Read-only transactions commit as a no-op.
func (tx *Tx) Commit() error { return tx.etx.Commit() }

// Rollback discards the transaction. Calling it after Commit (or twice)
// is a no-op.
func (tx *Tx) Rollback() { tx.etx.Rollback() }

// Update runs fn inside a transaction: committed if fn returns nil,
// rolled back if it errors, and automatically retried on ErrConflict up
// to Options.TxRetries times. fn may be executed several times, so it
// must not keep state across calls other than through the Tx it is given
// (ids returned by a previous attempt's Insert are invalid — re-insert).
//
//	err := db.Update(func(tx *twigdb.Tx) error {
//	    res, err := tx.Query(`/inventory/item[sku='X']`)
//	    if err != nil { return err }
//	    for _, id := range res.IDs {
//	        if err := tx.Delete(id); err != nil { return err }
//	    }
//	    _, err = tx.Insert(rootID, `<item><sku>X</sku></item>`)
//	    return err
//	})
func (db *DB) Update(fn func(*Tx) error) error {
	return db.eng.Update(func(etx *engine.Tx) error {
		return fn(&Tx{db: db, etx: etx})
	}, db.txRetries)
}

// CurrentSeq returns the sequence number of the database version queries
// currently observe. Capture it before a batch of updates to query the
// pre-update state later with QueryAsOf (within Options.RetainSnapshots).
func (db *DB) CurrentSeq() uint64 { return db.eng.CurrentSeq() }

// QueryAsOf evaluates a query against the historical database version
// with the given sequence number — an AS OF time-travel read. The version
// must be the current one or within the retention window configured by
// Options.RetainSnapshots; otherwise ErrSnapshotRetired. The returned
// Result's SnapshotSeq records the version that answered.
func (db *DB) QueryAsOf(q string, seq uint64) (*Result, error) {
	return db.query(func(pat *xpath.Pattern, opts engine.ReadOpts) (engine.ReadResult, error) {
		return db.eng.ReadAsOf(seq, pat, opts)
	}, Auto, q, false)
}

// TxStats is a snapshot of the lifetime transaction counters.
type TxStats struct {
	// Commits counts successfully committed transactions, including the
	// implicit single-statement transactions Insert and Delete run.
	Commits int64
	// Conflicts counts commits rejected with a write-set conflict
	// (including internally retried ones).
	Conflicts int64
	// Retries counts automatic conflict retries (implicit statements and
	// Update closures; explicit Commit calls never retry).
	Retries int64
	// RetainedSnapshots is the current depth of the AS OF window.
	RetainedSnapshots int
}

// TxStats returns the lifetime transaction counters.
func (db *DB) TxStats() TxStats {
	s := db.eng.QueryCounters()
	return TxStats{
		Commits:           s.TxCommits,
		Conflicts:         s.TxConflicts,
		Retries:           s.TxRetries,
		RetainedSnapshots: db.eng.RetainedSnapshots(),
	}
}
