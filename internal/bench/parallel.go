package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// ParallelConfig tunes the concurrent-session throughput experiment.
type ParallelConfig struct {
	Scale   int // dataset scale multiplier
	Workers int // concurrent sessions in the parallel run
	Queries int // total queries per run (spread over the workload round-robin)

	// Disk-resident regime: pool smaller than the working set plus a
	// simulated device latency per miss. Zero values skip that regime.
	IOPoolBytes   int64
	IOReadLatency time.Duration
}

// DefaultParallelConfig mirrors the acceptance setup: 8 sessions, both a
// memory-resident and a paper-style disk-resident regime.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{
		Scale:         1,
		Workers:       8,
		Queries:       1600,
		IOPoolBytes:   512 << 10,
		IOReadLatency: 200 * time.Microsecond,
	}
}

// RegimeResult is one storage regime's serial-vs-parallel measurement.
type RegimeResult struct {
	Name          string  `json:"name"`
	PoolMB        float64 `json:"pool_mb"`
	ReadLatencyUS float64 `json:"read_latency_us"`

	SerialQPS    float64 `json:"serial_qps"`
	ParallelQPS  float64 `json:"parallel_qps"`
	Speedup      float64 `json:"speedup"`
	SerialP50MS  float64 `json:"serial_p50_ms"`
	ParallelP50  float64 `json:"parallel_p50_ms"`
	ParallelP95  float64 `json:"parallel_p95_ms"`
	ParallelP99  float64 `json:"parallel_p99_ms"`
	SerialHit    float64 `json:"serial_hit_rate"`   // pool hit rate of the serial run
	ParallelHit  float64 `json:"parallel_hit_rate"` // pool hit rate of the parallel run
	QueriesRun   int     `json:"queries"`
	WallSerialMS float64 `json:"wall_serial_ms"`
	WallParMS    float64 `json:"wall_parallel_ms"`
}

// ParallelResult is the whole experiment, the BENCH_2.json payload.
type ParallelResult struct {
	Bench      string         `json:"bench"`
	Experiment string         `json:"experiment"`
	Dataset    string         `json:"dataset"`
	Scale      int            `json:"scale"`
	Strategy   string         `json:"strategy"`
	Workers    int            `json:"workers"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Regimes    []RegimeResult `json:"regimes"`
	Note       string         `json:"note,omitempty"`
}

// scanQueries are unselective structure-only companions to the paper's
// workload: free probes without a value prefix sweep long index ranges, the
// page-in pressure a production mixed workload would have (the paper's
// value queries alone touch a few hot leaves each and never churn a pool).
var scanQueries = []string{
	`/site/open_auctions/open_auction/time`,
	`//item/name`,
	`/site/people/person/name`,
	`//open_auction/bidder`,
	`//item/mailbox/mail/date`,
}

// parallelQueryStream pre-parses the XMark workload plus the unselective
// scan queries into a round-robin stream of n patterns; it also returns the
// distinct patterns (for warm-up passes).
func parallelQueryStream(n int) (stream, distinct []*xpath.Pattern, err error) {
	for _, q := range workload.XMark() {
		pat, err := xpath.Parse(q.XPath)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", q.ID, err)
		}
		distinct = append(distinct, pat)
	}
	for _, q := range scanQueries {
		pat, err := xpath.Parse(q)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", q, err)
		}
		distinct = append(distinct, pat)
	}
	stream = make([]*xpath.Pattern, n)
	for i := range stream {
		stream[i] = distinct[i%len(distinct)]
	}
	return stream, distinct, nil
}

// runStream executes the stream on `workers` session goroutines and returns
// the wall time plus per-query latencies.
func runStream(db *engine.DB, stream []*xpath.Pattern, workers int) (time.Duration, []time.Duration, error) {
	lat := make([]time.Duration, len(stream))
	next := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep draining after an error — the producer feeds an
			// unbuffered channel and would otherwise block forever.
			for i := range next {
				if failed() {
					continue
				}
				t0 := time.Now()
				_, err := db.Read(stream[i], pinnedOpts(plan.DataPathsPlan))
				lat[i] = time.Since(t0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	start := time.Now()
	for i := range stream {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Since(start), lat, firstErr
}

func percentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}

// runRegime measures serial (1 session) vs parallel (cfg.Workers sessions)
// aggregate throughput on a fresh database built with the given engine
// config.
func runRegime(name string, ecfg engine.Config, cfg ParallelConfig) (RegimeResult, error) {
	// Build at memory speed; the simulated device latency only applies to
	// the measured query phase.
	lat := ecfg.DiskReadLatency
	ecfg.DiskReadLatency = 0
	db := engine.New(ecfg)
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := db.BuildAll(); err != nil {
		return RegimeResult{}, err
	}
	db.SetDiskReadLatency(lat)
	stream, distinct, err := parallelQueryStream(cfg.Queries)
	if err != nil {
		return RegimeResult{}, err
	}
	// One warm pass over every distinct query (plan caches, estimates,
	// first-touch page faults), so neither measured run pays cold-start
	// costs the other doesn't.
	for _, pat := range distinct {
		if _, err := db.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
			return RegimeResult{}, fmt.Errorf("bench: warm-up %s: %w", pat.Source, err)
		}
	}

	hitRate := func() float64 {
		ps := db.PoolStats()
		if ps.Fetches == 0 {
			return 0
		}
		return float64(ps.Hits) / float64(ps.Fetches)
	}
	db.ResetPoolStats()
	serialWall, serialLat, err := runStream(db, stream, 1)
	if err != nil {
		return RegimeResult{}, err
	}
	serialHits := hitRate()
	db.ResetPoolStats()
	parWall, parLat, err := runStream(db, stream, cfg.Workers)
	if err != nil {
		return RegimeResult{}, err
	}
	parHits := hitRate()
	n := float64(len(stream))
	res := RegimeResult{
		Name:          name,
		PoolMB:        float64(ecfg.BufferPoolBytes) / (1 << 20),
		ReadLatencyUS: float64(lat.Microseconds()),
		SerialQPS:     n / serialWall.Seconds(),
		ParallelQPS:   n / parWall.Seconds(),
		SerialP50MS:   percentileMS(serialLat, 0.50),
		ParallelP50:   percentileMS(parLat, 0.50),
		ParallelP95:   percentileMS(parLat, 0.95),
		ParallelP99:   percentileMS(parLat, 0.99),
		SerialHit:     serialHits,
		ParallelHit:   parHits,
		QueriesRun:    len(stream),
		WallSerialMS:  float64(serialWall.Microseconds()) / 1000,
		WallParMS:     float64(parWall.Microseconds()) / 1000,
	}
	res.Speedup = res.ParallelQPS / res.SerialQPS
	return res, nil
}

// ParallelExperiment runs the concurrent-session throughput experiment:
// the same XMark query stream served by one session and by cfg.Workers
// sessions, in a memory-resident regime (40MB pool, zero latency) and — if
// configured — the paper's disk-resident regime (pool far smaller than the
// index working set, with a simulated per-miss device latency, where
// concurrent sessions overlap their I/O stalls).
func ParallelExperiment(cfg ParallelConfig) (*ParallelResult, error) {
	out := &ParallelResult{
		Bench:      "BENCH_2",
		Experiment: "parallel-session-throughput",
		Dataset:    "XMark",
		Scale:      cfg.Scale,
		Strategy:   plan.DataPathsPlan.String(),
		Workers:    cfg.Workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "serial = 1 session; parallel = `workers` concurrent sessions over one shared buffer pool. " +
			"disk-resident regime: pool << working set, simulated per-miss read latency (the paper's 40MB-pool-vs-larger-data setting); " +
			"memory-resident parallel speedup is bounded by GOMAXPROCS.",
	}
	mem, err := runRegime("memory-resident", engine.Config{BufferPoolBytes: 40 << 20}, cfg)
	if err != nil {
		return nil, err
	}
	out.Regimes = append(out.Regimes, mem)
	if cfg.IOPoolBytes > 0 && cfg.IOReadLatency > 0 {
		io, err := runRegime("disk-resident", engine.Config{
			BufferPoolBytes: cfg.IOPoolBytes,
			DiskReadLatency: cfg.IOReadLatency,
			// A tiny pool would auto-collapse to one lock stripe, and then
			// concurrent faults (and their simulated stalls) could never
			// overlap; force full striping.
			PoolShards: 16,
		}, cfg)
		if err != nil {
			return nil, err
		}
		out.Regimes = append(out.Regimes, io)
	}
	return out, nil
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *ParallelResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders a human-readable table of the experiment.
func (r *ParallelResult) String() string {
	t := &Table{
		Title: fmt.Sprintf("Concurrent-session throughput (XMark, %s, %d workers, GOMAXPROCS=%d)",
			r.Strategy, r.Workers, r.GOMAXPROCS),
		Header: []string{"regime", "pool MB", "miss lat µs", "serial QPS", "parallel QPS", "speedup", "p50 ms", "p95 ms", "p99 ms", "hit rate"},
	}
	for _, g := range r.Regimes {
		t.Rows = append(t.Rows, []string{
			g.Name,
			fmt.Sprintf("%.1f", g.PoolMB),
			fmt.Sprintf("%.0f", g.ReadLatencyUS),
			fmt.Sprintf("%.0f", g.SerialQPS),
			fmt.Sprintf("%.0f", g.ParallelQPS),
			fmt.Sprintf("%.2fx", g.Speedup),
			fmt.Sprintf("%.2f", g.ParallelP50),
			fmt.Sprintf("%.2f", g.ParallelP95),
			fmt.Sprintf("%.2f", g.ParallelP99),
			fmt.Sprintf("%.1f%%", g.ParallelHit*100),
		})
	}
	t.Notes = append(t.Notes, r.Note)
	return t.String()
}
