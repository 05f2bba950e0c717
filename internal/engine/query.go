package engine

import (
	"time"

	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/xpath"
)

// Planner says where a read gets its plan tree from.
type Planner uint8

const (
	// Pinned builds ReadOpts.Strategy's tree for this call, bypassing the
	// cost-based planner.
	Pinned Planner = iota
	// Auto runs the cheapest tree over the built indices, resolved through
	// the snapshot's per-pattern plan cache.
	Auto
	// Oracle runs no plan: the naive in-memory matcher over the snapshot's
	// frozen store, the reference of the differential tests.
	Oracle
)

// ReadOpts is everything that can vary between two reads of one snapshot.
type ReadOpts struct {
	Planner  Planner
	Strategy plan.Strategy // the pinned strategy; ignored under Auto and Oracle
	// Trace forces per-operator tracing for this one read (EXPLAIN
	// ANALYZE); Config.SlowQueryThreshold turns it on for every read.
	Trace bool
}

// ReadResult is the outcome of one read.
type ReadResult struct {
	IDs []int64
	// Stats is the executed plan's work counters and view tree; nil for
	// Oracle reads.
	Stats *plan.ExecStats
	// Strategy is the strategy that ran (the planner's choice under Auto;
	// meaningless for Oracle reads).
	Strategy plan.Strategy
	// Seq is the sequence number of the snapshot that answered: the
	// current one for Read, the requested one for ReadAsOf, the base of
	// the transaction for Tx.Read.
	Seq uint64
}

// Read runs pat against the current snapshot, which it pins for the read's
// lifetime — no lock is taken and no concurrent mutation can block or tear
// it, nor invalidate a chosen index between planning and execution.
func (db *DB) Read(pat *xpath.Pattern, opts ReadOpts) (ReadResult, error) {
	s := db.pin()
	defer db.unpin(s)
	return db.run(s, pat, opts)
}

// ReadAsOf runs pat against the snapshot with the given sequence number —
// the AS OF time-travel read. The snapshot must be current or within the
// retention window (Config.RetainSnapshots); otherwise ErrSnapshotRetired.
func (db *DB) ReadAsOf(seq uint64, pat *xpath.Pattern, opts ReadOpts) (ReadResult, error) {
	s, release, err := db.SnapshotAt(seq)
	if err != nil {
		return ReadResult{}, err
	}
	defer release()
	return db.run(s, pat, opts)
}

// Read runs pat against the transaction's view: its own uncommitted
// statements over the frozen base.
func (tx *Tx) Read(pat *xpath.Pattern, opts ReadOpts) (ReadResult, error) {
	if tx.done {
		return ReadResult{}, ErrTxDone
	}
	res, err := tx.db.run(tx.snapshot(), pat, opts)
	// The private successor's number is not a published version.
	res.Seq = tx.base.seq
	return res, err
}

// QueryPatternBest is Read under the cost-based planner. Every read runs
// on the calling goroutine; the workers argument is ignored.
func (db *DB) QueryPatternBest(pat *xpath.Pattern, workers int) ([]int64, *plan.ExecStats, plan.Strategy, error) {
	res, err := db.Read(pat, ReadOpts{Planner: Auto})
	return res.IDs, res.Stats, res.Strategy, err
}

// MatchNaive is Read under the Oracle, which cannot fail.
func (db *DB) MatchNaive(pat *xpath.Pattern) []int64 {
	res, _ := db.Read(pat, ReadOpts{Planner: Oracle})
	return res.IDs
}

// run is the one query path: every read of the database — current, AS OF
// or inside a transaction; pinned, planned or naive; traced or not — is
// this function applied to a snapshot the caller holds.
// It resolves the plan tree, executes it, and observes and counts the read.
//
// A read that fails before it has a tree (no index built, a strategy whose
// index is missing) executed nothing and is neither observed nor counted;
// one that has a tree is, whether or not execution then fails. Oracle reads
// run no plan and are not counted either (QueryStats.Queries counts indexed
// queries).
func (db *DB) run(s *Snapshot, pat *xpath.Pattern, opts ReadOpts) (ReadResult, error) {
	res := ReadResult{Seq: s.seq}
	if opts.Planner == Oracle {
		res.IDs = naive.Match(s.store, pat)
		return res, nil
	}
	env := s.queryEnv()
	start := time.Now()
	tree, cacheHit, err := s.planFor(env, pat, opts)
	if err != nil {
		return res, err
	}
	if cacheHit {
		db.counters.CountPlanCacheHit()
	}
	res.Strategy = tree.Strategy
	res.IDs, res.Stats, err = plan.Run(env, tree, opts.Trace)
	db.observeQuery(s, pat, res.Stats, time.Since(start))
	db.counters.CountQuery(res.Stats.BranchesJoined)
	return res, err
}

// observeQuery records one finished query into the latency histogram and,
// when it crossed the configured slow-query threshold, into the slow-query
// ring. The rendered plan comes from the executed view tree, so a slow
// query's entry carries its per-operator trace (tracing is always on when
// a threshold is configured).
func (db *DB) observeQuery(s *Snapshot, pat *xpath.Pattern, es *plan.ExecStats, elapsed time.Duration) {
	db.reg.QueryLatency.Observe(elapsed.Nanoseconds())
	if thr := db.cfg.SlowQueryThreshold; thr > 0 && elapsed >= thr {
		q := obs.SlowQuery{
			Query:       pat.Source,
			Strategy:    es.Plan.Strategy.String(),
			Elapsed:     elapsed,
			SnapshotSeq: s.seq,
			When:        time.Now(),
			Plan:        es.Plan.Render(),
		}
		if q.Query == "" {
			q.Query = pat.String()
		}
		db.slowLog.Record(q)
	}
}
