package stats

import (
	"sync/atomic"

	"repro/internal/obs"
)

// QueryCounters are engine-lifetime query counters. Each field is
// atomic, so concurrent sessions bump them without a lock; an obs
// sequence lock additionally groups the multi-counter update of
// CountQuery so Snapshot returns one consistent point in time — an
// unguarded reader could previously observe a query counted in
// `queries` but not yet in `branchesEvaluated` (a torn QueryStats
// snapshot against a concurrent commit).
type QueryCounters struct {
	lock              obs.StatLock
	queries           atomic.Int64
	branchesEvaluated atomic.Int64
	planCacheHits     atomic.Int64
	snapshotsPinned   atomic.Int64
	txCommits         atomic.Int64
	txConflicts       atomic.Int64
	txRetries         atomic.Int64
}

// CountQuery records one executed query; branches is the number of
// covering branches the plan evaluated.
func (c *QueryCounters) CountQuery(branches int) {
	c.lock.Lock()
	c.queries.Add(1)
	c.branchesEvaluated.Add(int64(branches))
	c.lock.Unlock()
}

// CountPlanCacheHit records one auto-planned query whose strategy choice
// was served from the per-pattern plan cache.
func (c *QueryCounters) CountPlanCacheHit() {
	c.lock.Lock()
	c.planCacheHits.Add(1)
	c.lock.Unlock()
}

// CountSnapshotPin records one reader pinning an engine snapshot for the
// lifetime of a query.
func (c *QueryCounters) CountSnapshotPin() {
	c.lock.Lock()
	c.snapshotsPinned.Add(1)
	c.lock.Unlock()
}

// CountTxCommit records one successfully committed transaction.
func (c *QueryCounters) CountTxCommit() {
	c.lock.Lock()
	c.txCommits.Add(1)
	c.lock.Unlock()
}

// CountTxConflict records one transaction commit rejected with a write-set
// conflict (ErrConflict surfaced to the caller).
func (c *QueryCounters) CountTxConflict() {
	c.lock.Lock()
	c.txConflicts.Add(1)
	c.lock.Unlock()
}

// CountTxRetry records one automatic retry of a conflicted transaction
// (the engine's implicit single-statement transactions and Update-style
// closures retry; explicit Commit calls never do).
func (c *QueryCounters) CountTxRetry() {
	c.lock.Lock()
	c.txRetries.Add(1)
	c.lock.Unlock()
}

// QuerySnapshot is a point-in-time copy of the counters.
type QuerySnapshot struct {
	Queries           int64 // queries executed
	BranchesEvaluated int64 // covering branches evaluated across all queries
	PlanCacheHits     int64 // auto-planned queries answered from the plan cache
	SnapshotsPinned   int64 // snapshot pins taken by readers (one per query)
	TxCommits         int64 // transactions committed (including implicit single-statement ones)
	TxConflicts       int64 // commits rejected with a write-set conflict
	TxRetries         int64 // automatic retries of conflicted transactions
}

// Snapshot returns one consistent point-in-time copy: it retries under
// the sequence lock until it reads without overlapping any counting
// writer, so cross-counter invariants (every counted query's branches
// are included) hold exactly.
func (c *QueryCounters) Snapshot() QuerySnapshot {
	var s QuerySnapshot
	c.lock.Read(func() {
		s = QuerySnapshot{
			Queries:           c.queries.Load(),
			BranchesEvaluated: c.branchesEvaluated.Load(),
			PlanCacheHits:     c.planCacheHits.Load(),
			SnapshotsPinned:   c.snapshotsPinned.Load(),
			TxCommits:         c.txCommits.Load(),
			TxConflicts:       c.txConflicts.Load(),
			TxRetries:         c.txRetries.Load(),
		}
	})
	return s
}
