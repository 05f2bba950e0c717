package bench

// BENCH_8: the optimistic multi-statement transaction experiment. A
// writer-count sweep on disjoint documents measures how committed
// transaction throughput behaves as concurrent writers are added (their
// write-sets never overlap, so validation always passes and the WAL
// group-commit path batches whole transactions under single fsyncs), and
// a contended phase points every writer at one shared document to record
// the conflict/retry economics of first-committer-wins.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// TxnConfig tunes the transaction throughput experiment (BENCH_8).
type TxnConfig struct {
	// WriterCounts is the sweep: one disjoint-document run per entry.
	WriterCounts []int
	// TxPerWriter is the committed transactions each writer performs.
	TxPerWriter int
	// StmtsPerTx is the statements batched into each transaction.
	StmtsPerTx int
	// ConflictWriters/ConflictOps shape the contended phase: every writer
	// retries updates against one shared document.
	ConflictWriters int
	ConflictOps     int
	Dir             string // where the file-backed databases live ("" = temp)
}

// DefaultTxnConfig is the recorded acceptance setup.
func DefaultTxnConfig() TxnConfig {
	return TxnConfig{
		WriterCounts:    []int{1, 2, 4},
		TxPerWriter:     60,
		StmtsPerTx:      4,
		ConflictWriters: 4,
		ConflictOps:     40,
	}
}

// TxnPoint is one writer-count measurement of the disjoint sweep.
type TxnPoint struct {
	Writers         int     `json:"writers"`
	Commits         int64   `json:"commits"`
	Statements      int64   `json:"statements"`
	Conflicts       int64   `json:"conflicts"`
	CommitsPerSec   float64 `json:"commits_per_sec"`
	StmtsPerSec     float64 `json:"statements_per_sec"`
	Fsyncs          int64   `json:"fsyncs"`
	FsyncsPerCommit float64 `json:"fsyncs_per_commit"`
	FsyncsPerStmt   float64 `json:"fsyncs_per_statement"`
	TxnP50MS        float64 `json:"txn_p50_ms"`
	TxnP99MS        float64 `json:"txn_p99_ms"`
}

// TxnResult is the whole experiment, the BENCH_8.json payload.
type TxnResult struct {
	Bench       string     `json:"bench"`
	Experiment  string     `json:"experiment"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	StmtsPerTx  int        `json:"statements_per_tx"`
	TxPerWriter int        `json:"tx_per_writer"`
	Sweep       []TxnPoint `json:"disjoint_sweep"`

	// Contended phase: every writer updates the same document.
	ConflictWriters   int     `json:"conflict_writers"`
	ConflictCommits   int64   `json:"conflict_commits"`
	ConflictConflicts int64   `json:"conflict_conflicts"`
	ConflictRetries   int64   `json:"conflict_retries"`
	ConflictCPS       float64 `json:"conflict_commits_per_sec"`

	Note string `json:"note,omitempty"`
}

// txnZoneDB opens a fresh file-backed engine with `writers` disjoint
// single-rooted documents and the incrementally maintainable index pair,
// returning the document root ids.
func txnZoneDB(dir string, tag string, writers int) (*engine.DB, []int64, error) {
	db, err := engine.Open(engine.Config{
		BufferPoolBytes: 8 << 20,
		Path:            filepath.Join(dir, fmt.Sprintf("txn-%s.twigdb", tag)),
	})
	if err != nil {
		return nil, nil, err
	}
	for w := 0; w < writers; w++ {
		if err := db.LoadXML(newStringReader(fmt.Sprintf("<z%d><seed/></z%d>", w, w))); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	if err := db.Build(indexKindsRPDP()...); err != nil {
		db.Close()
		return nil, nil, err
	}
	roots := make([]int64, writers)
	for w := 0; w < writers; w++ {
		zone, err := db.Read(xpath.MustParse(fmt.Sprintf(`/z%d`, w)), pinnedOpts(plan.DataPathsPlan))
		if err != nil || len(zone.IDs) != 1 {
			db.Close()
			return nil, nil, fmt.Errorf("bench: zone %d setup (%v)", w, err)
		}
		roots[w] = zone.IDs[0]
	}
	return db, roots, nil
}

// TxnExperiment runs the BENCH_8 measurement.
func TxnExperiment(cfg TxnConfig) (*TxnResult, error) {
	out := &TxnResult{
		Bench:       "BENCH_8",
		Experiment:  "optimistic-transactions",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		StmtsPerTx:  cfg.StmtsPerTx,
		TxPerWriter: cfg.TxPerWriter,
		Note: "disjoint sweep: each writer commits explicit multi-statement transactions against its own document " +
			"(write-sets never overlap, zero conflicts expected); contended phase: all writers retry updates on one shared document. " +
			"fsyncs/statement is the number comparable to BENCH_5's fsyncs-per-committed-update: a BENCH_5 commit carries one " +
			"statement, a BENCH_8 commit batches statements_per_tx of them under one WAL commit record. " +
			"On a single-CPU host the sweep measures commit-path batching, not CPU parallelism: aggregate throughput should hold " +
			"(and fsyncs/commit fall) as writers are added, rather than scale linearly.",
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "twigbench-txn")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// ---- disjoint writer-count sweep ----
	for _, writers := range cfg.WriterCounts {
		db, roots, err := txnZoneDB(dir, fmt.Sprintf("d%d", writers), writers)
		if err != nil {
			return nil, err
		}
		devBefore := db.DeviceStats()
		cBefore := db.QueryCounters()
		histBefore := db.Obs().TxnLatency.Snapshot()
		start := time.Now()
		var wg sync.WaitGroup
		var werr atomic.Value
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < cfg.TxPerWriter; i++ {
					tx := db.Begin()
					for s := 0; s < cfg.StmtsPerTx; s++ {
						doc, err := xmldb.ParseString(fmt.Sprintf("<item><name>w%d-%d-%d</name></item>", w, i, s))
						if err == nil {
							err = tx.Insert(roots[w], doc.Root)
						}
						if err != nil {
							tx.Rollback()
							werr.Store(err)
							return
						}
					}
					if err := tx.Commit(); err != nil {
						werr.Store(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if e := werr.Load(); e != nil {
			db.Close()
			return nil, e.(error)
		}
		devAfter := db.DeviceStats()
		cAfter := db.QueryCounters()
		hist := db.Obs().TxnLatency.Snapshot().Sub(histBefore)
		if err := db.Close(); err != nil {
			return nil, err
		}
		p := TxnPoint{
			Writers:    writers,
			Commits:    int64(writers * cfg.TxPerWriter),
			Statements: int64(writers * cfg.TxPerWriter * cfg.StmtsPerTx),
			Conflicts:  cAfter.TxConflicts - cBefore.TxConflicts,
			Fsyncs:     devAfter.WALFsyncs - devBefore.WALFsyncs,
			TxnP50MS:   float64(hist.Quantile(0.50)) / 1e6,
			TxnP99MS:   float64(hist.Quantile(0.99)) / 1e6,
		}
		p.CommitsPerSec = float64(p.Commits) / wall.Seconds()
		p.StmtsPerSec = float64(p.Statements) / wall.Seconds()
		p.FsyncsPerCommit = float64(p.Fsyncs) / float64(p.Commits)
		p.FsyncsPerStmt = float64(p.Fsyncs) / float64(p.Statements)
		if p.Conflicts != 0 {
			return nil, fmt.Errorf("bench: disjoint sweep with %d writers raised %d conflicts", writers, p.Conflicts)
		}
		out.Sweep = append(out.Sweep, p)
	}

	// ---- contended phase: one shared document ----
	db, roots, err := txnZoneDB(dir, "shared", 1)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	shared := roots[0]
	cBefore := db.QueryCounters()
	start := time.Now()
	var wg sync.WaitGroup
	var werr atomic.Value
	for w := 0; w < cfg.ConflictWriters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.ConflictOps; i++ {
				err := db.Update(func(tx *engine.Tx) error {
					doc, err := xmldb.ParseString(fmt.Sprintf("<item><name>c%d-%d</name></item>", w, i))
					if err != nil {
						return err
					}
					return tx.Insert(shared, doc.Root)
				}, -1) // unbounded retries: the phase measures, not bounds, contention
				if err != nil {
					werr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if e := werr.Load(); e != nil {
		return nil, e.(error)
	}
	cAfter := db.QueryCounters()
	out.ConflictWriters = cfg.ConflictWriters
	out.ConflictCommits = int64(cfg.ConflictWriters * cfg.ConflictOps)
	out.ConflictConflicts = cAfter.TxConflicts - cBefore.TxConflicts
	out.ConflictRetries = cAfter.TxRetries - cBefore.TxRetries
	out.ConflictCPS = float64(out.ConflictCommits) / wall.Seconds()

	// Every committed update must be present exactly once: the contended
	// phase is also a correctness probe, not just a stopwatch.
	items, err := db.Read(xpath.MustParse(`/z0/item`), pinnedOpts(plan.DataPathsPlan))
	if err != nil {
		return nil, err
	}
	if int64(len(items.IDs)) != out.ConflictCommits {
		return nil, fmt.Errorf("bench: %d items after contended phase, want %d (lost or doubled update)",
			len(items.IDs), out.ConflictCommits)
	}
	return out, nil
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *TxnResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders a human-readable summary of the experiment.
func (r *TxnResult) String() string {
	t := &Table{
		Title: fmt.Sprintf("Optimistic transactions (%d statements/tx, %d tx/writer, GOMAXPROCS=%d)",
			r.StmtsPerTx, r.TxPerWriter, r.GOMAXPROCS),
		Header: []string{"writers", "tx/s", "stmts/s", "fsyncs/tx", "fsyncs/stmt", "txn p50 ms", "txn p99 ms"},
	}
	for _, p := range r.Sweep {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Writers),
			fmt.Sprintf("%.0f", p.CommitsPerSec),
			fmt.Sprintf("%.0f", p.StmtsPerSec),
			fmt.Sprintf("%.3f", p.FsyncsPerCommit),
			fmt.Sprintf("%.3f", p.FsyncsPerStmt),
			fmt.Sprintf("%.3f", p.TxnP50MS),
			fmt.Sprintf("%.3f", p.TxnP99MS),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("contended phase (%d writers, one shared document): %d commits at %.0f/s, %d conflicts, %d retries — every commit verified present exactly once",
			r.ConflictWriters, r.ConflictCommits, r.ConflictCPS, r.ConflictConflicts, r.ConflictRetries),
		r.Note,
	)
	return t.String()
}
