package twigdb

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// LatencyStats summarises one latency histogram: sample count, mean and
// the tail quantiles. Quantiles are read from log-bucketed histograms
// (≤12.5% relative bucket width), so they are estimates with that
// resolution, not exact order statistics.
type LatencyStats struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// BatchStats summarises a dimensionless size histogram (group-commit
// batch sizes: commits made durable per physical WAL fsync).
type BatchStats struct {
	Count int64
	Mean  float64
	P50   int64
	P90   int64
	P99   int64
	Max   int64
}

// Metrics is a point-in-time summary of the database's latency
// distributions; see docs/OBSERVABILITY.md for what each series measures
// and when it is recorded. All durations are zero-valued until the
// corresponding path has executed at least once (e.g. WALFsyncLatency
// stays empty for in-memory databases).
type Metrics struct {
	// QueryLatency is end-to-end query latency (parse excluded, plan +
	// execute included), one sample per query.
	QueryLatency LatencyStats
	// WALFsyncLatency is the duration of each physical WAL fsync
	// (group-commit leaders only).
	WALFsyncLatency LatencyStats
	// PoolMissLatency is the device read latency of each buffer pool miss.
	PoolMissLatency LatencyStats
	// CheckpointDuration is the duration of each full checkpoint.
	CheckpointDuration LatencyStats
	// CommitLatency is per-commit latency — WAL append, catalog write,
	// snapshot publish and the group fsync of one commit. Comparing its
	// tail with and without the background checkpointer active shows the
	// checkpointer's interference with the commit path.
	CommitLatency LatencyStats
	// TxnLatency is end-to-end transaction commit latency — validation,
	// any replays, publish and the group fsync. One sample per successful
	// Commit (conflicted commits publish nothing and record nothing).
	TxnLatency LatencyStats
	// GroupCommitBatch is the number of commits each WAL fsync made
	// durable — the group-commit amortisation factor.
	GroupCommitBatch BatchStats
	// SlowQueries is the lifetime number of queries that crossed
	// Options.SlowQueryThreshold (including ones already evicted from
	// the ring).
	SlowQueries int64
}

func latencyStats(h *obs.Histogram) LatencyStats {
	s := h.Snapshot()
	return LatencyStats{
		Count: s.Count,
		Mean:  time.Duration(s.Mean()),
		P50:   time.Duration(s.Quantile(0.50)),
		P90:   time.Duration(s.Quantile(0.90)),
		P99:   time.Duration(s.Quantile(0.99)),
		P999:  time.Duration(s.Quantile(0.999)),
		Max:   time.Duration(s.Max()),
	}
}

func batchStats(h *obs.Histogram) BatchStats {
	s := h.Snapshot()
	return BatchStats{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}

// Metrics returns the current latency and batch-size summaries. Safe to
// call at any frequency, concurrently with queries and commits: the
// histograms are lock-free and a snapshot never blocks recorders.
func (db *DB) Metrics() Metrics {
	reg := db.eng.Obs()
	return Metrics{
		QueryLatency:       latencyStats(reg.QueryLatency),
		WALFsyncLatency:    latencyStats(reg.WALFsyncLatency),
		PoolMissLatency:    latencyStats(reg.PoolMissLatency),
		CheckpointDuration: latencyStats(reg.CheckpointDuration),
		CommitLatency:      latencyStats(reg.CommitLatency),
		TxnLatency:         latencyStats(reg.TxnLatency),
		GroupCommitBatch:   batchStats(reg.GroupCommitBatch),
		SlowQueries:        db.eng.SlowQueryLog().Total(),
	}
}

// SlowQuery is one retained slow-query capture (see
// Options.SlowQueryThreshold).
type SlowQuery struct {
	Query       string        // the query text as submitted
	Strategy    string        // the strategy that executed it
	Elapsed     time.Duration // end-to-end latency
	SnapshotSeq uint64        // the snapshot version it read
	// Plan is the executed plan rendered with per-operator actual rows
	// and wall time — the trace was already on (the threshold enables
	// always-on tracing), so capturing it costs nothing extra.
	Plan string
	When time.Time
}

// SlowQueries returns the retained slow-query entries, oldest first.
// Empty unless Options.SlowQueryThreshold is set.
func (db *DB) SlowQueries() []SlowQuery {
	entries := db.eng.SlowQueries()
	out := make([]SlowQuery, len(entries))
	for i, e := range entries {
		out[i] = SlowQuery{
			Query:       e.Query,
			Strategy:    e.Strategy,
			Elapsed:     e.Elapsed,
			SnapshotSeq: e.SnapshotSeq,
			Plan:        e.Plan,
			When:        e.When,
		}
	}
	return out
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteMetrics renders every counter, gauge and histogram in the
// Prometheus text exposition format (version 0.0.4) — the body served at
// /metrics by ServeMetrics, exposed directly for embedding in an existing
// HTTP server or scraping pipeline. The metric name catalog is documented
// in docs/OBSERVABILITY.md.
func (db *DB) WriteMetrics(w io.Writer) error {
	p := obs.NewPromWriter(w)
	qs := db.eng.QueryCounters()
	d := db.eng.DeviceStats()
	pool := db.eng.PoolStats()
	h := db.eng.Health()
	reg := db.eng.Obs()

	p.Counter("twigdb_queries_total", "Queries executed (Oracle not counted).", qs.Queries)
	p.Counter("twigdb_branches_evaluated_total", "Covering branches evaluated across all queries.", qs.BranchesEvaluated)
	p.Counter("twigdb_plan_cache_hits_total", "Auto-planned queries answered from the per-snapshot plan cache.", qs.PlanCacheHits)
	p.Counter("twigdb_snapshots_pinned_total", "Reader-side snapshot pins (one per query).", qs.SnapshotsPinned)
	p.Counter("twigdb_slow_queries_total", "Queries that crossed the slow-query threshold.", db.eng.SlowQueryLog().Total())

	p.Counter("twigdb_tx_commits_total", "Transactions committed (including implicit single-statement ones).", qs.TxCommits)
	p.Counter("twigdb_tx_conflicts_total", "Transaction commits rejected with a write-set conflict.", qs.TxConflicts)
	p.Counter("twigdb_tx_retries_total", "Automatic retries of conflicted transactions.", qs.TxRetries)
	p.Gauge("twigdb_retained_snapshots", "Superseded versions held in the AS OF retention window.", float64(db.eng.RetainedSnapshots()))

	p.Counter("twigdb_device_reads_total", "Page reads from the device.", d.Reads)
	p.Counter("twigdb_device_writes_total", "Page writes to the device.", d.Writes)
	p.Counter("twigdb_device_read_bytes_total", "Bytes read from the device.", d.BytesRead)
	p.Counter("twigdb_device_written_bytes_total", "Bytes written to the device (WAL + checkpoints when file-backed).", d.BytesWritten)
	p.Counter("twigdb_wal_appends_total", "Frames appended to the write-ahead log.", d.WALAppends)
	p.Counter("twigdb_wal_fsyncs_total", "Physical WAL fsyncs (one per durable batch, not per commit).", d.WALFsyncs)
	p.Counter("twigdb_group_commit_batches_total", "Coalesced group-commit fsync batches.", d.GroupCommitBatches)
	p.Counter("twigdb_checkpoints_total", "Checkpoints migrating the WAL into the database file.", d.Checkpoints)
	p.Gauge("twigdb_wal_bytes", "Current write-ahead log length in bytes.", float64(d.WALBytes))
	p.Counter("twigdb_checksum_failures_total", "Page/WAL-frame checksum verifications that failed.", d.ChecksumFailures)
	p.Counter("twigdb_checksum_retries_total", "Transparent re-reads that recovered a checksum failure.", d.ChecksumRetries)
	p.Counter("twigdb_injected_faults_total", "Faults fired by the configured injector.", d.InjectedFaults)
	p.Counter("twigdb_recovered_commits_total", "Commits replayed from the WAL at the last open.", d.RecoveredCommits)
	p.Counter("twigdb_wal_discarded_bytes_total", "Torn/corrupt WAL tail bytes discarded at the last open.", d.WALBytesDiscarded)
	p.Counter("twigdb_pages_freed_total", "Pages returned to the on-disk free list.", d.PagesFreed)
	p.Counter("twigdb_pages_reused_total", "Allocations served from the free list instead of growing the file.", d.PagesReused)
	p.Gauge("twigdb_file_bytes", "Current database file length in bytes.", float64(d.FileBytes))
	p.Counter("twigdb_free_list_resets_total", "Free-list chains discarded at recovery because validation failed.", d.FreeListResets)

	p.Counter("twigdb_pool_fetches_total", "Buffer pool fetches.", pool.Fetches)
	p.Counter("twigdb_pool_hits_total", "Buffer pool fetches served without device I/O.", pool.Hits)
	p.Counter("twigdb_pool_page_reads_total", "Buffer pool misses (device reads).", pool.PageReads)
	p.Counter("twigdb_pool_page_writes_total", "Dirty pages written back by the pool.", pool.PageWrites)

	p.Gauge("twigdb_readonly", "1 while the database is in degraded read-only mode, else 0.", bool01(h.ReadOnly))
	if h.Cause != nil {
		p.GaugeVec("twigdb_readonly_cause", "Root cause of degraded read-only mode.",
			[]obs.LabeledValue{{Label: "cause", Value: h.Cause.Error(), V: 1}})
	}
	p.Gauge("twigdb_snapshot_seq", "Version number of the published snapshot.", float64(h.SnapshotSeq))
	p.Gauge("twigdb_device_poisoned", "1 once a failed fsync poisoned the device, else 0.", bool01(d.Poisoned))

	if inj := db.eng.FaultInjector(); inj != nil {
		st := inj.Stats()
		kinds := make([]storage.FaultKind, 0, len(st.Counts))
		for k := range st.Counts {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		samples := make([]obs.LabeledValue, 0, len(kinds))
		for _, k := range kinds {
			samples = append(samples, obs.LabeledValue{Label: "kind", Value: k.String(), V: float64(st.Counts[k])})
		}
		p.CounterVec("twigdb_fault_fired_total", "Injected faults fired, by kind.", samples)
	}

	p.Histogram("twigdb_query_latency_seconds", "End-to-end query latency.", reg.QueryLatency.Snapshot(), 1e-9)
	p.Histogram("twigdb_wal_fsync_latency_seconds", "Physical WAL fsync duration.", reg.WALFsyncLatency.Snapshot(), 1e-9)
	p.Histogram("twigdb_group_commit_batch_size", "Commits made durable per WAL fsync.", reg.GroupCommitBatch.Snapshot(), 1)
	p.Histogram("twigdb_pool_miss_read_latency_seconds", "Device read latency of buffer pool misses.", reg.PoolMissLatency.Snapshot(), 1e-9)
	p.Histogram("twigdb_checkpoint_duration_seconds", "Full checkpoint duration.", reg.CheckpointDuration.Snapshot(), 1e-9)
	p.Histogram("twigdb_commit_latency_seconds", "Per-commit latency (WAL append through group fsync).", reg.CommitLatency.Snapshot(), 1e-9)
	p.Histogram("twigdb_txn_latency_seconds", "Transaction commit latency (validation through group fsync; successful commits only).", reg.TxnLatency.Snapshot(), 1e-9)
	return p.Err()
}

// MetricsServer is the HTTP listener started by ServeMetrics.
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the listener's resolved address ("127.0.0.1:39041" when
// the server was started on port 0).
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// URL returns the metrics endpoint URL.
func (s *MetricsServer) URL() string { return "http://" + s.Addr() + "/metrics" }

// Close stops the listener. In-flight scrapes are cut off; metrics
// recording in the database is unaffected.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// ServeMetrics starts an HTTP listener on addr (e.g. "localhost:9090", or
// ":0" to pick a free port — read it back via Addr) serving
//
//   - /metrics — every counter and latency histogram in Prometheus text
//     format (WriteMetrics), including health/degraded-mode gauges, and
//   - /debug/pprof/... — the standard Go profiling endpoints,
//
// and returns immediately; the caller owns the returned server and must
// Close it. Opt-in by design: no listener exists unless this is called.
func (db *DB) ServeMetrics(addr string) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := db.WriteMetrics(w); err != nil {
			// Headers are already out; nothing useful to do but stop.
			return
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return &MetricsServer{srv: srv, ln: ln}, nil
}
