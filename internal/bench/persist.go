package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
)

// PersistConfig tunes the file-backed storage experiment.
type PersistConfig struct {
	Scale int // dataset scale multiplier
	// Dir holds the benchmark database file; empty uses a temp directory
	// removed afterwards.
	Dir string
	// ColdPoolBytes sizes the deliberately small pool of the cold-cache
	// query regime, so queries actually fault pages from the file.
	ColdPoolBytes int64
}

// DefaultPersistConfig mirrors the acceptance setup.
func DefaultPersistConfig() PersistConfig {
	return PersistConfig{Scale: 1, ColdPoolBytes: 512 << 10}
}

// PersistRegime is one storage regime's query measurement over the XMark
// workload (Repeats warm runs per query, like every other experiment).
type PersistRegime struct {
	Name    string  `json:"name"`
	PoolMB  float64 `json:"pool_mb"`
	TotalMS float64 `json:"total_ms"`
	// ColdMS is the first full pass (faulting pages in), where the regimes
	// genuinely differ; TotalMS covers the warm repeats.
	ColdMS  float64 `json:"cold_ms"`
	HitRate float64 `json:"hit_rate"`
	// DeviceReads/BytesRead make the regime's I/O visible (real file reads
	// for file-backed, counted copies for in-memory).
	DeviceReads int64   `json:"device_reads"`
	BytesReadMB float64 `json:"bytes_read_mb"`
}

// PersistResult is the whole experiment, the BENCH_3.json payload.
type PersistResult struct {
	Bench      string `json:"bench"`
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Scale      int    `json:"scale"`
	Strategy   string `json:"strategy"`

	BuildMS     float64 `json:"build_ms"`     // load + BuildAll, file-backed
	CloseMS     float64 `json:"close_ms"`     // commit + checkpoint + close
	ReopenMS    float64 `json:"reopen_ms"`    // recovery + catalog restore
	MemBuildMS  float64 `json:"mem_build_ms"` // load + BuildAll, in-memory
	FileMB      float64 `json:"file_mb"`      // database file size
	WALFsyncs   int64   `json:"wal_fsyncs"`   // fsyncs paid during build
	Checkpoints int64   `json:"checkpoints"`  // checkpoints during build+close

	Regimes []PersistRegime `json:"regimes"`
	Note    string          `json:"note,omitempty"`
}

// String renders the result as a text table.
func (r *PersistResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== file-backed storage (XMark scale %d, %s) ==\n", r.Scale, r.Strategy)
	fmt.Fprintf(&b, "build+index (file)   %10.2f ms   (%d wal fsyncs, %d checkpoints)\n", r.BuildMS, r.WALFsyncs, r.Checkpoints)
	fmt.Fprintf(&b, "build+index (memory) %10.2f ms\n", r.MemBuildMS)
	fmt.Fprintf(&b, "close (checkpoint)   %10.2f ms   (file %.2f MB)\n", r.CloseMS, r.FileMB)
	fmt.Fprintf(&b, "reopen (recover)     %10.2f ms   (zero rebuild work)\n", r.ReopenMS)
	fmt.Fprintf(&b, "%-22s %10s %10s %8s %12s %10s\n", "query regime", "cold ms", "warm ms", "hit", "dev reads", "read MB")
	for _, reg := range r.Regimes {
		fmt.Fprintf(&b, "%-22s %10.2f %10.2f %7.1f%% %12d %10.2f\n",
			reg.Name, reg.ColdMS, reg.TotalMS, reg.HitRate*100, reg.DeviceReads, reg.BytesReadMB)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Note)
	}
	return b.String()
}

// WriteJSON writes the result to path.
func (r *PersistResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// persistRegimeRun measures the XMark workload on db: one cold pass, then
// Repeats warm passes, via the DATAPATHS strategy.
func persistRegimeRun(name string, db *engine.DB, poolBytes int64) (PersistRegime, error) {
	_, distinct, err := parallelQueryStream(1)
	if err != nil {
		return PersistRegime{}, err
	}
	db.ResetPoolStats()
	r0, _ := db.Device().Counters()
	b0 := db.DeviceStats().BytesRead

	cold := time.Now()
	for _, pat := range distinct {
		if _, err := db.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
			return PersistRegime{}, fmt.Errorf("bench: %s cold %s: %w", name, pat.Source, err)
		}
	}
	coldMS := float64(time.Since(cold).Microseconds()) / 1000

	warm := time.Now()
	for i := 0; i < Repeats; i++ {
		for _, pat := range distinct {
			if _, err := db.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
				return PersistRegime{}, err
			}
		}
	}
	warmMS := float64(time.Since(warm).Microseconds()) / 1000

	ps := db.PoolStats()
	hit := 0.0
	if ps.Fetches > 0 {
		hit = float64(ps.Hits) / float64(ps.Fetches)
	}
	r1, _ := db.Device().Counters()
	return PersistRegime{
		Name:        name,
		PoolMB:      float64(poolBytes) / (1 << 20),
		ColdMS:      coldMS,
		TotalMS:     warmMS,
		HitRate:     hit,
		DeviceReads: r1 - r0,
		BytesReadMB: float64(db.DeviceStats().BytesRead-b0) / (1 << 20),
	}, nil
}

// PersistExperiment measures the durable storage subsystem end to end:
// build-and-close a file-backed XMark database, reopen it (recovery +
// catalog restore, no rebuild), then compare cold-cache query time across
// three regimes — in-memory, file-backed (real file I/O on misses), and
// in-memory with the simulated per-miss latency of BENCH_2 — all with the
// same deliberately small pool.
func PersistExperiment(cfg PersistConfig) (*PersistResult, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.ColdPoolBytes <= 0 {
		cfg.ColdPoolBytes = 512 << 10
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "twigbench-persist")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "xmark.twigdb")

	out := &PersistResult{
		Bench:      "BENCH_3",
		Experiment: "file-backed-storage",
		Dataset:    "XMark",
		Scale:      cfg.Scale,
		Strategy:   plan.DataPathsPlan.String(),
		Note: "cold = first pass over the workload with an empty pool; warm = total of " +
			fmt.Sprint(Repeats) + " further passes. file-backed reads fault real pages from the database file; " +
			"simulated-latency is the BENCH_2 disk-resident regime on the in-memory device.",
	}

	// Build the file-backed database and close it (commit + checkpoint).
	t0 := time.Now()
	fdb, err := engine.Open(engine.Config{Path: path, BufferPoolBytes: 40 << 20})
	if err != nil {
		return nil, err
	}
	fdb.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := fdb.BuildAll(); err != nil {
		return nil, err
	}
	out.BuildMS = float64(time.Since(t0).Microseconds()) / 1000

	t0 = time.Now()
	if err := fdb.Close(); err != nil {
		return nil, err
	}
	out.CloseMS = float64(time.Since(t0).Microseconds()) / 1000
	st := fdb.DeviceStats() // counters survive Close
	out.WALFsyncs = st.WALFsyncs
	out.Checkpoints = st.Checkpoints
	if fi, err := os.Stat(path); err == nil {
		out.FileMB = float64(fi.Size()) / (1 << 20)
	}

	// In-memory build, for the build-overhead comparison.
	t0 = time.Now()
	mdb := engine.New(engine.Config{BufferPoolBytes: 40 << 20})
	mdb.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := mdb.BuildAll(); err != nil {
		return nil, err
	}
	out.MemBuildMS = float64(time.Since(t0).Microseconds()) / 1000

	// Reopen with a small pool: recovery plus cold-cache file-backed queries.
	t0 = time.Now()
	rdb, err := engine.Open(engine.Config{Path: path, BufferPoolBytes: cfg.ColdPoolBytes})
	if err != nil {
		return nil, err
	}
	defer rdb.Close()
	out.ReopenMS = float64(time.Since(t0).Microseconds()) / 1000

	fileReg, err := persistRegimeRun("file-backed cold", rdb, cfg.ColdPoolBytes)
	if err != nil {
		return nil, err
	}

	// In-memory regime on the same pool size (device reads are RAM copies).
	smem := engine.New(engine.Config{BufferPoolBytes: cfg.ColdPoolBytes})
	smem.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := smem.BuildAll(); err != nil {
		return nil, err
	}
	memReg, err := persistRegimeRun("in-memory", smem, cfg.ColdPoolBytes)
	if err != nil {
		return nil, err
	}

	// Simulated-latency regime: the BENCH_2 disk-resident setting.
	slat := engine.New(engine.Config{BufferPoolBytes: cfg.ColdPoolBytes})
	slat.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := slat.BuildAll(); err != nil {
		return nil, err
	}
	slat.SetDiskReadLatency(200 * time.Microsecond)
	latReg, err := persistRegimeRun("simulated-latency", slat, cfg.ColdPoolBytes)
	if err != nil {
		return nil, err
	}

	out.Regimes = []PersistRegime{memReg, fileReg, latReg}
	return out, nil
}
