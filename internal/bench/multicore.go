package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
)

// MulticoreConfig tunes the core-count scaling experiment.
type MulticoreConfig struct {
	Scale   int   // dataset scale multiplier
	Cores   []int // GOMAXPROCS settings to sweep; sessions per point = cores
	Queries int   // total queries per measured run

	// Disk-resident regime: pool smaller than the working set plus a
	// simulated device latency per miss. Zero values skip that regime.
	IOPoolBytes   int64
	IOReadLatency time.Duration
}

// DefaultMulticoreConfig mirrors the acceptance setup: a 1/2/4/8-core
// sweep over the memory-resident and the paper-style disk-resident regime.
func DefaultMulticoreConfig() MulticoreConfig {
	return MulticoreConfig{
		Scale:         1,
		Cores:         []int{1, 2, 4, 8},
		Queries:       1200,
		IOPoolBytes:   512 << 10,
		IOReadLatency: 200 * time.Microsecond,
	}
}

// MulticorePoint is one (GOMAXPROCS = sessions) measurement of a regime.
type MulticorePoint struct {
	Cores    int     `json:"cores"` // GOMAXPROCS and concurrent sessions
	QPS      float64 `json:"qps"`
	Speedup  float64 `json:"speedup"` // vs the sweep's first (1-core) point
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	HitRate  float64 `json:"hit_rate"`
	WallMS   float64 `json:"wall_ms"`
	Queries  int     `json:"queries"`
	Sessions int     `json:"sessions"`
}

// MulticoreRegime is one storage regime's core-count sweep.
type MulticoreRegime struct {
	Name          string           `json:"name"`
	PoolMB        float64          `json:"pool_mb"`
	ReadLatencyUS float64          `json:"read_latency_us"`
	Points        []MulticorePoint `json:"points"`
}

// MulticoreResult is the whole experiment, the BENCH_6.json payload.
type MulticoreResult struct {
	Bench      string            `json:"bench"`
	Experiment string            `json:"experiment"`
	Dataset    string            `json:"dataset"`
	Scale      int               `json:"scale"`
	Strategy   string            `json:"strategy"`
	CPUsOnline int               `json:"cpus_online"`
	Regimes    []MulticoreRegime `json:"regimes"`
	Note       string            `json:"note,omitempty"`
}

// sweepRegime builds one database for the regime and measures the query
// stream at each core count: GOMAXPROCS is set to the point's core count
// and the stream is served by that many concurrent sessions. The database
// (and its warmed plan cache and buffer pool) is shared across the sweep so
// the points differ only in scheduling parallelism.
func sweepRegime(name string, ecfg engine.Config, cfg MulticoreConfig) (MulticoreRegime, error) {
	lat := ecfg.DiskReadLatency
	ecfg.DiskReadLatency = 0
	db := engine.New(ecfg)
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := db.BuildAll(); err != nil {
		return MulticoreRegime{}, err
	}
	db.SetDiskReadLatency(lat)
	stream, distinct, err := parallelQueryStream(cfg.Queries)
	if err != nil {
		return MulticoreRegime{}, err
	}
	for _, pat := range distinct {
		if _, err := db.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
			return MulticoreRegime{}, fmt.Errorf("bench: warm-up %s: %w", pat.Source, err)
		}
	}
	reg := MulticoreRegime{
		Name:          name,
		PoolMB:        float64(ecfg.BufferPoolBytes) / (1 << 20),
		ReadLatencyUS: float64(lat.Microseconds()),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, cores := range cfg.Cores {
		runtime.GOMAXPROCS(cores)
		db.ResetPoolStats()
		wall, lats, err := runStream(db, stream, cores)
		if err != nil {
			return MulticoreRegime{}, err
		}
		ps := db.PoolStats()
		hit := 0.0
		if ps.Fetches > 0 {
			hit = float64(ps.Hits) / float64(ps.Fetches)
		}
		pt := MulticorePoint{
			Cores:    cores,
			QPS:      float64(len(stream)) / wall.Seconds(),
			P50MS:    percentileMS(lats, 0.50),
			P95MS:    percentileMS(lats, 0.95),
			HitRate:  hit,
			WallMS:   float64(wall.Microseconds()) / 1000,
			Queries:  len(stream),
			Sessions: cores,
		}
		if len(reg.Points) == 0 {
			pt.Speedup = 1
		} else {
			pt.Speedup = pt.QPS / reg.Points[0].QPS
		}
		reg.Points = append(reg.Points, pt)
	}
	return reg, nil
}

// MulticoreExperiment runs the core-count scaling experiment: the XMark
// query stream served with GOMAXPROCS = sessions = each entry of
// cfg.Cores, in a memory-resident regime and — if configured — the paper's
// disk-resident regime. Speedup at each point is relative to the sweep's
// first point on the same database.
//
// The result records the host's online CPU count. Points whose core count
// exceeds it cannot show real parallel speedup: the Go scheduler
// multiplexes the extra Ps onto the same hardware, so those points measure
// scheduling overhead and (in the disk regime) I/O overlap, not added
// compute. Interpret the memory-resident sweep only up to cpus_online.
func MulticoreExperiment(cfg MulticoreConfig) (*MulticoreResult, error) {
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{1, 2, 4, 8}
	}
	out := &MulticoreResult{
		Bench:      "BENCH_6",
		Experiment: "multicore-scaling",
		Dataset:    "XMark",
		Scale:      cfg.Scale,
		Strategy:   plan.DataPathsPlan.String(),
		CPUsOnline: runtime.NumCPU(),
		Note: "each point sets GOMAXPROCS = sessions = cores and serves the same warmed query stream; " +
			"speedup is vs the sweep's 1-core point on the same database. " +
			"Points with cores > cpus_online are time-sliced onto the available hardware and do not " +
			"measure real parallel speedup — memory-resident scaling is only meaningful up to cpus_online; " +
			"disk-resident points above it still gain from overlapping simulated I/O stalls.",
	}
	mem, err := sweepRegime("memory-resident", engine.Config{BufferPoolBytes: 40 << 20}, cfg)
	if err != nil {
		return nil, err
	}
	out.Regimes = append(out.Regimes, mem)
	if cfg.IOPoolBytes > 0 && cfg.IOReadLatency > 0 {
		io, err := sweepRegime("disk-resident", engine.Config{
			BufferPoolBytes: cfg.IOPoolBytes,
			DiskReadLatency: cfg.IOReadLatency,
			PoolShards:      16,
		}, cfg)
		if err != nil {
			return nil, err
		}
		out.Regimes = append(out.Regimes, io)
	}
	return out, nil
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *MulticoreResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders a human-readable table of the experiment.
func (r *MulticoreResult) String() string {
	t := &Table{
		Title: fmt.Sprintf("Multicore scaling (XMark, %s, cpus_online=%d)",
			r.Strategy, r.CPUsOnline),
		Header: []string{"regime", "cores", "QPS", "speedup", "p50 ms", "p95 ms", "hit rate", "wall ms"},
	}
	for _, g := range r.Regimes {
		for _, p := range g.Points {
			t.Rows = append(t.Rows, []string{
				g.Name,
				fmt.Sprintf("%d", p.Cores),
				fmt.Sprintf("%.0f", p.QPS),
				fmt.Sprintf("%.2fx", p.Speedup),
				fmt.Sprintf("%.2f", p.P50MS),
				fmt.Sprintf("%.2f", p.P95MS),
				fmt.Sprintf("%.1f%%", p.HitRate*100),
				fmt.Sprintf("%.0f", p.WallMS),
			})
		}
	}
	t.Notes = append(t.Notes, r.Note)
	return t.String()
}
