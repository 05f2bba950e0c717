package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// indexKindsRPDP is the incrementally maintainable index pair the mixed
// workload builds (the others would be dropped by the first update anyway).
func indexKindsRPDP() []index.Kind {
	return []index.Kind{index.KindRootPaths, index.KindDataPaths}
}

func newStringReader(s string) *strings.Reader { return strings.NewReader(s) }

// MixedConfig tunes the mixed read/write workload experiment (BENCH_5).
type MixedConfig struct {
	Scale   int // dataset scale multiplier
	Readers int // concurrent reader sessions
	Queries int // queries per read phase

	// Group-commit phase: file-backed database, Writers concurrent
	// committers, WriterOps committed updates each.
	Writers   int
	WriterOps int
	Dir       string // where the file-backed database lives ("" = temp dir)
}

// DefaultMixedConfig mirrors the acceptance setup: 4 reader sessions vs a
// continuous writer, and >= 4 concurrent writers on the durability phase.
func DefaultMixedConfig() MixedConfig {
	return MixedConfig{Scale: 1, Readers: 4, Queries: 1200, Writers: 4, WriterOps: 40}
}

// MixedResult is the whole experiment, the BENCH_5.json payload.
type MixedResult struct {
	Bench      string `json:"bench"`
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Scale      int    `json:"scale"`
	Readers    int    `json:"readers"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Read-only baseline vs the same stream with one continuous writer.
	// The p50/p90/p99 columns are read from the engine's query-latency
	// histogram (phase deltas of the lock-free recorder every query feeds),
	// so they are the same numbers a production scrape would report; p95
	// keeps the historical exact-sort source for continuity.
	BaselineQPS   float64 `json:"baseline_qps"`
	BaselineP50MS float64 `json:"baseline_p50_ms"`
	BaselineP90MS float64 `json:"baseline_p90_ms"`
	BaselineP95MS float64 `json:"baseline_p95_ms"`
	BaselineP99MS float64 `json:"baseline_p99_ms"`
	MixedQPS      float64 `json:"mixed_qps"`
	MixedP50MS    float64 `json:"mixed_p50_ms"`
	MixedP90MS    float64 `json:"mixed_p90_ms"`
	MixedP95MS    float64 `json:"mixed_p95_ms"`
	// MixedP99MS is the reader p99 under writer load — the tail the paper's
	// concurrency story is really about.
	MixedP99MS float64 `json:"mixed_p99_ms"`
	// P50Ratio is mixed p50 over baseline p50 — the acceptance bound is 2.
	P50Ratio      float64 `json:"p50_ratio"`
	WriterOpsDone int     `json:"writer_ops_done"`
	WriterOpsPS   float64 `json:"writer_ops_per_sec"`
	SnapshotsPins int64   `json:"snapshots_pinned"`

	// Group-commit phase (file-backed): fsyncs per committed update with 1
	// writer and with `writers` concurrent writers — the acceptance bound
	// is below 1 for the concurrent run.
	GroupWriters         int     `json:"group_writers"`
	GroupCommits         int64   `json:"group_commits"`
	FsyncsSerial         int64   `json:"fsyncs_1_writer"`
	FsyncsGroup          int64   `json:"fsyncs_n_writers"`
	FsyncsPerCommit1     float64 `json:"fsyncs_per_commit_1_writer"`
	FsyncsPerCommitN     float64 `json:"fsyncs_per_commit_n_writers"`
	GroupCommitBatches   int64   `json:"group_commit_batches"`
	GroupWriterOpsPerSec float64 `json:"group_writer_ops_per_sec"`
	// Histogram-sourced commit-path distributions of the n-writer run.
	FsyncP50US float64 `json:"fsync_p50_us"` // physical WAL fsync latency
	FsyncP99US float64 `json:"fsync_p99_us"`
	BatchP50   int64   `json:"batch_p50"` // commits made durable per fsync
	BatchP99   int64   `json:"batch_p99"`

	Note string `json:"note,omitempty"`
}

// mixedWriter churns marker subtrees under the given parents until stop is
// closed, alternating inserts and deletes; returns completed operations.
func mixedWriter(db *engine.DB, parents []int64, stop <-chan struct{}, errOut *atomic.Value) int {
	ops := 0
	var live []int64
	for {
		select {
		case <-stop:
			return ops
		default:
		}
		if len(live) > 16 {
			if err := db.DeleteSubtree(live[0]); err != nil {
				errOut.Store(err)
				return ops
			}
			live = live[1:]
		} else {
			frag := fmt.Sprintf("<item><name>mixed-%d</name><tag>churn</tag></item>", ops)
			doc, err := xmldb.ParseString(frag)
			if err != nil {
				errOut.Store(err)
				return ops
			}
			if err := db.InsertSubtree(parents[ops%len(parents)], doc.Root); err != nil {
				errOut.Store(err)
				return ops
			}
			live = append(live, doc.Root.ID)
		}
		ops++
	}
}

// MixedExperiment measures what snapshot isolation buys: reader latency
// with a continuous writer churning subtree updates must stay within 2x of
// the read-only baseline (readers pin immutable snapshots and never block
// on the writer), and with several concurrent writers the WAL group-commit
// path must amortise fsyncs below one per committed update.
func MixedExperiment(cfg MixedConfig) (*MixedResult, error) {
	out := &MixedResult{
		Bench:      "BENCH_5",
		Experiment: "mixed-read-write",
		Dataset:    "XMark",
		Scale:      cfg.Scale,
		Readers:    cfg.Readers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "baseline = read-only stream over `readers` sessions; mixed = same stream with one continuous Insert/Delete writer. " +
			"Readers pin immutable snapshots (never block on the writer); acceptance: mixed p50 <= 2x baseline p50. " +
			"Group-commit phase: file-backed DB, fsyncs per committed update with 1 vs n concurrent writers; acceptance: < 1 with n >= 4.",
	}

	// ---- read phases: in-memory XMark, incrementally maintainable indices.
	db := engine.New(engine.Config{BufferPoolBytes: 40 << 20})
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := db.Build(indexKindsRPDP()...); err != nil {
		return nil, err
	}
	stream, distinct, err := parallelQueryStream(cfg.Queries)
	if err != nil {
		return nil, err
	}
	for _, pat := range distinct { // warm plans, estimates, first-touch faults
		if _, err := db.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
			return nil, err
		}
	}
	regions, err := db.Read(xpath.MustParse(`/site/regions/namerica/item`), pinnedOpts(plan.DataPathsPlan))
	if err != nil || len(regions.IDs) == 0 {
		return nil, fmt.Errorf("bench: no insertion parents (%v)", err)
	}
	parents := regions.IDs
	if len(parents) > 8 {
		parents = parents[:8]
	}

	histBefore := db.Obs().QueryLatency.Snapshot()
	baseWall, baseLat, err := runStream(db, stream, cfg.Readers)
	if err != nil {
		return nil, err
	}
	baseHist := db.Obs().QueryLatency.Snapshot().Sub(histBefore)
	out.BaselineQPS = float64(len(stream)) / baseWall.Seconds()
	out.BaselineP50MS = quantileMS(baseHist, 0.50)
	out.BaselineP90MS = quantileMS(baseHist, 0.90)
	out.BaselineP95MS = percentileMS(baseLat, 0.95)
	out.BaselineP99MS = quantileMS(baseHist, 0.99)

	pinsBefore := db.QueryCounters().SnapshotsPinned
	stop := make(chan struct{})
	var werr atomic.Value
	var wops int
	var wg sync.WaitGroup
	wg.Add(1)
	wstart := time.Now()
	go func() {
		defer wg.Done()
		wops = mixedWriter(db, parents, stop, &werr)
	}()
	histMid := db.Obs().QueryLatency.Snapshot()
	mixWall, mixLat, err := runStream(db, stream, cfg.Readers)
	close(stop)
	wg.Wait()
	wDur := time.Since(wstart)
	if err != nil {
		return nil, err
	}
	if e := werr.Load(); e != nil {
		return nil, e.(error)
	}
	mixHist := db.Obs().QueryLatency.Snapshot().Sub(histMid)
	out.MixedQPS = float64(len(stream)) / mixWall.Seconds()
	out.MixedP50MS = quantileMS(mixHist, 0.50)
	out.MixedP90MS = quantileMS(mixHist, 0.90)
	out.MixedP95MS = percentileMS(mixLat, 0.95)
	out.MixedP99MS = quantileMS(mixHist, 0.99)
	if out.BaselineP50MS > 0 {
		out.P50Ratio = out.MixedP50MS / out.BaselineP50MS
	}
	out.WriterOpsDone = wops
	out.WriterOpsPS = float64(wops) / wDur.Seconds()
	out.SnapshotsPins = db.QueryCounters().SnapshotsPinned - pinsBefore

	// ---- group-commit phase: file-backed, 1 writer vs cfg.Writers.
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "twigbench-mixed")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	runCommitPhase := func(writers int) (ph commitPhase, err error) {
		fdb, err := engine.Open(engine.Config{
			BufferPoolBytes: 8 << 20,
			Path:            filepath.Join(dir, fmt.Sprintf("mixed-%d.twigdb", writers)),
		})
		if err != nil {
			return ph, err
		}
		defer fdb.Close()
		var zones string
		for z := 0; z < writers; z++ {
			zones += "<z/>"
		}
		if err := fdb.LoadXML(newStringReader("<root>" + zones + "</root>")); err != nil {
			return ph, err
		}
		if err := fdb.Build(indexKindsRPDP()...); err != nil {
			return ph, err
		}
		zres, err := fdb.Read(xpath.MustParse(`/root/z`), pinnedOpts(plan.DataPathsPlan))
		zids := zres.IDs
		if err != nil || len(zids) != writers {
			return ph, fmt.Errorf("bench: zone setup (%v)", err)
		}
		before := fdb.DeviceStats()
		fsyncBefore := fdb.Obs().WALFsyncLatency.Snapshot()
		batchBefore := fdb.Obs().GroupCommitBatch.Snapshot()
		start := time.Now()
		var wg sync.WaitGroup
		var werr atomic.Value
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < cfg.WriterOps; i++ {
					doc, err := xmldb.ParseString(fmt.Sprintf("<item><name>w%d-%d</name></item>", w, i))
					if err == nil {
						err = fdb.InsertSubtree(zids[w], doc.Root)
					}
					if err != nil {
						werr.Store(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if e := werr.Load(); e != nil {
			return ph, e.(error)
		}
		wall := time.Since(start)
		after := fdb.DeviceStats()
		fsyncHist := fdb.Obs().WALFsyncLatency.Snapshot().Sub(fsyncBefore)
		batchHist := fdb.Obs().GroupCommitBatch.Snapshot().Sub(batchBefore)
		ph.commits = int64(writers * cfg.WriterOps)
		ph.fsyncs = after.WALFsyncs - before.WALFsyncs
		ph.batches = after.GroupCommitBatches - before.GroupCommitBatches
		ph.opsPerSec = float64(ph.commits) / wall.Seconds()
		ph.fsyncP50US = float64(fsyncHist.Quantile(0.50)) / 1e3
		ph.fsyncP99US = float64(fsyncHist.Quantile(0.99)) / 1e3
		ph.batchP50 = batchHist.Quantile(0.50)
		ph.batchP99 = batchHist.Quantile(0.99)
		return ph, nil
	}
	ph1, err := runCommitPhase(1)
	if err != nil {
		return nil, err
	}
	phN, err := runCommitPhase(cfg.Writers)
	if err != nil {
		return nil, err
	}
	out.GroupWriters = cfg.Writers
	out.GroupCommits = phN.commits
	out.FsyncsSerial = ph1.fsyncs
	out.FsyncsGroup = phN.fsyncs
	out.FsyncsPerCommit1 = float64(ph1.fsyncs) / float64(ph1.commits)
	out.FsyncsPerCommitN = float64(phN.fsyncs) / float64(phN.commits)
	out.GroupCommitBatches = phN.batches
	out.GroupWriterOpsPerSec = phN.opsPerSec
	out.FsyncP50US = phN.fsyncP50US
	out.FsyncP99US = phN.fsyncP99US
	out.BatchP50 = phN.batchP50
	out.BatchP99 = phN.batchP99
	return out, nil
}

// commitPhase is one group-commit measurement run.
type commitPhase struct {
	fsyncs, commits, batches int64
	opsPerSec                float64
	fsyncP50US, fsyncP99US   float64
	batchP50, batchP99       int64
}

// quantileMS reads a quantile out of a nanosecond histogram snapshot in
// milliseconds.
func quantileMS(s obs.HistogramSnapshot, q float64) float64 {
	return float64(s.Quantile(q)) / 1e6
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *MixedResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders a human-readable summary of the experiment.
func (r *MixedResult) String() string {
	t := &Table{
		Title: fmt.Sprintf("Mixed read/write workload (XMark, %d readers, GOMAXPROCS=%d)",
			r.Readers, r.GOMAXPROCS),
		Header: []string{"phase", "QPS", "p50 ms", "p95 ms", "p99 ms", "writer ops/s"},
		Rows: [][]string{
			{"read-only", fmt.Sprintf("%.0f", r.BaselineQPS), fmt.Sprintf("%.3f", r.BaselineP50MS), fmt.Sprintf("%.3f", r.BaselineP95MS), fmt.Sprintf("%.3f", r.BaselineP99MS), "-"},
			{"read+write", fmt.Sprintf("%.0f", r.MixedQPS), fmt.Sprintf("%.3f", r.MixedP50MS), fmt.Sprintf("%.3f", r.MixedP95MS), fmt.Sprintf("%.3f", r.MixedP99MS), fmt.Sprintf("%.0f", r.WriterOpsPS)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("reader p50 ratio (mixed/baseline): %.2fx (bound: 2.0x); reader p99 under writer load: %.3f ms; snapshots pinned during mixed phase: %d", r.P50Ratio, r.MixedP99MS, r.SnapshotsPins),
		fmt.Sprintf("group commit: %.3f fsyncs/commit with 1 writer vs %.3f with %d writers (%d commits, %d batches; bound: < 1)",
			r.FsyncsPerCommit1, r.FsyncsPerCommitN, r.GroupWriters, r.GroupCommits, r.GroupCommitBatches),
		fmt.Sprintf("commit path (from histograms, %d writers): fsync p50/p99 = %.0f/%.0f µs, batch p50/p99 = %d/%d commits",
			r.GroupWriters, r.FsyncP50US, r.FsyncP99US, r.BatchP50, r.BatchP99),
		r.Note,
	)
	return t.String()
}
