package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/xmldb"
)

// ScaleConfig tunes the disk-resident scale experiment (BENCH_7): an XMark
// database an order of magnitude past the other benchmarks, queried and
// churned through a buffer pool far smaller than the data.
type ScaleConfig struct {
	// Scale is the XMark scale multiplier (10 = the acceptance setting).
	Scale int
	// Dir holds the benchmark database; empty uses a temp directory.
	Dir string
	// PoolBytes sizes the deliberately small buffer pool of the query and
	// churn phases — the point of the experiment is pool << data.
	PoolBytes int64
	// ChurnRounds/ChurnSteps/LiveSet shape the steady-state churn phase:
	// each round inserts ChurnSteps subtrees and deletes down to LiveSet.
	ChurnRounds int
	ChurnSteps  int
	LiveSet     int
	// CheckpointWALBytes is the background checkpointer's WAL watermark for
	// the active-checkpoint churn phase.
	CheckpointWALBytes int64
}

// DefaultScaleConfig mirrors the acceptance setup.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Scale:              10,
		PoolBytes:          1 << 20,
		ChurnRounds:        6,
		ChurnSteps:         60,
		LiveSet:            120,
		CheckpointWALBytes: 4 << 20,
	}
}

// ScaleQuantiles summarises one latency distribution in milliseconds.
type ScaleQuantiles struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// ScaleChurn is one churn phase's measurement.
type ScaleChurn struct {
	Name string `json:"name"`
	// Commit latency over every insert/delete commit of the phase.
	Commit ScaleQuantiles `json:"commit"`
	// Checkpoints run during the phase (0 for the quiescent-checkpointer
	// phase; > 0 proves the background checkpointer was actually active).
	Checkpoints int64 `json:"checkpoints"`
	PagesFreed  int64 `json:"pages_freed"`
	PagesReused int64 `json:"pages_reused"`
	// FileSizesMB are the post-round database file sizes; a plateau over
	// the later rounds is the steady-state claim.
	FileSizesMB []float64 `json:"file_sizes_mb"`
	WallMS      float64   `json:"wall_ms"`
}

// ScaleResult is the whole experiment, the BENCH_7.json payload.
type ScaleResult struct {
	Bench      string `json:"bench"`
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Scale      int    `json:"scale"`
	Strategy   string `json:"strategy"`

	Nodes    int     `json:"nodes"`
	BuildMS  float64 `json:"build_ms"`
	FileMB   float64 `json:"file_mb"`
	PoolMB   float64 `json:"pool_mb"`
	ReopenMS float64 `json:"reopen_ms"`

	// Cold pass: every distinct workload query once against an empty pool,
	// faulting pages from the file; warm: Repeats further passes.
	ColdQuery   ScaleQuantiles `json:"cold_query"`
	WarmQuery   ScaleQuantiles `json:"warm_query"`
	ColdHitRate float64        `json:"cold_hit_rate"`
	DeviceReads int64          `json:"device_reads"`

	// Churn phases: identical workloads, without and with the background
	// checkpointer. The acceptance bound compares their commit p99s.
	Churn []ScaleChurn `json:"churn"`

	Note string `json:"note,omitempty"`
}

// String renders the result as a text table.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== disk-resident scale (XMark scale %d, %s) ==\n", r.Scale, r.Strategy)
	fmt.Fprintf(&b, "build+index          %10.2f ms   (%d nodes, file %.2f MB, pool %.2f MB)\n",
		r.BuildMS, r.Nodes, r.FileMB, r.PoolMB)
	fmt.Fprintf(&b, "reopen (recover)     %10.2f ms\n", r.ReopenMS)
	fmt.Fprintf(&b, "%-22s %8s %10s %10s %10s\n", "query phase", "n", "p50 ms", "p99 ms", "max ms")
	fmt.Fprintf(&b, "%-22s %8d %10.3f %10.3f %10.3f   (hit %.1f%%, %d dev reads)\n",
		"cold (pool empty)", r.ColdQuery.Count, r.ColdQuery.P50MS, r.ColdQuery.P99MS, r.ColdQuery.MaxMS,
		r.ColdHitRate*100, r.DeviceReads)
	fmt.Fprintf(&b, "%-22s %8d %10.3f %10.3f %10.3f\n",
		"warm", r.WarmQuery.Count, r.WarmQuery.P50MS, r.WarmQuery.P99MS, r.WarmQuery.MaxMS)
	fmt.Fprintf(&b, "%-22s %8s %10s %10s %8s %12s %10s\n", "churn phase", "commits", "p50 ms", "p99 ms", "ckpts", "pages freed", "reused")
	for _, c := range r.Churn {
		fmt.Fprintf(&b, "%-22s %8d %10.3f %10.3f %8d %12d %10d\n",
			c.Name, c.Commit.Count, c.Commit.P50MS, c.Commit.P99MS, c.Checkpoints, c.PagesFreed, c.PagesReused)
		fmt.Fprintf(&b, "  file sizes MB: %v\n", c.FileSizesMB)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Note)
	}
	return b.String()
}

// WriteJSON writes the result to path.
func (r *ScaleResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// latQuantiles summarises a sorted slice of per-operation durations.
func latQuantiles(lat []time.Duration) ScaleQuantiles {
	if len(lat) == 0 {
		return ScaleQuantiles{}
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i].Microseconds()) / 1000
	}
	return ScaleQuantiles{
		Count: int64(len(sorted)),
		P50MS: at(0.50),
		P99MS: at(0.99),
		MaxMS: float64(sorted[len(sorted)-1].Microseconds()) / 1000,
	}
}

// churnSubtree builds one synthetic auction-listing subtree for the churn
// workload (deterministic shape; i varies the data values).
func churnSubtree(i int) *xmldb.Node {
	return xmldb.Elem("listing",
		xmldb.Attr("id", fmt.Sprintf("c%d", i)),
		xmldb.Text("seller", fmt.Sprintf("person%d", i%977)),
		xmldb.Text("price", fmt.Sprintf("%d.%02d", i%500, i%100)),
		xmldb.Elem("history",
			xmldb.Text("bid", fmt.Sprintf("%d", i%300)),
			xmldb.Text("bid", fmt.Sprintf("%d", (i+7)%300)),
		),
	)
}

// runChurnPhase opens the database with the given checkpoint watermark and
// drives the insert/delete churn, timing every mutation commit.
func runChurnPhase(name, path string, cfg ScaleConfig, walBytes int64) (ScaleChurn, error) {
	t0 := time.Now()
	db, err := engine.Open(engine.Config{
		Path:               path,
		BufferPoolBytes:    cfg.PoolBytes,
		CheckpointWALBytes: walBytes,
	})
	if err != nil {
		return ScaleChurn{}, err
	}
	rootID := db.Store().Docs[0].Root.ID
	st0 := db.DeviceStats()

	var lat []time.Duration
	var live []int64
	seq := 0
	sizes := make([]float64, 0, cfg.ChurnRounds)
	for round := 0; round < cfg.ChurnRounds; round++ {
		for step := 0; step < cfg.ChurnSteps; step++ {
			sub := churnSubtree(seq)
			seq++
			t := time.Now()
			if err := db.InsertSubtree(rootID, sub); err != nil {
				db.Close()
				return ScaleChurn{}, fmt.Errorf("bench: %s insert: %w", name, err)
			}
			lat = append(lat, time.Since(t))
			live = append(live, sub.ID)
			if len(live) > cfg.LiveSet {
				t = time.Now()
				if err := db.DeleteSubtree(live[0]); err != nil {
					db.Close()
					return ScaleChurn{}, fmt.Errorf("bench: %s delete: %w", name, err)
				}
				lat = append(lat, time.Since(t))
				live = live[1:]
			}
		}
		if fi, err := os.Stat(path); err == nil {
			sizes = append(sizes, float64(fi.Size())/(1<<20))
		}
	}
	st1 := db.DeviceStats()
	out := ScaleChurn{
		Name:        name,
		Commit:      latQuantiles(lat),
		Checkpoints: st1.Checkpoints - st0.Checkpoints,
		PagesFreed:  st1.PagesFreed - st0.PagesFreed,
		PagesReused: st1.PagesReused - st0.PagesReused,
		FileSizesMB: sizes,
		WallMS:      float64(time.Since(t0).Microseconds()) / 1000,
	}
	return out, db.Close()
}

// ScaleExperiment measures the storage engine at disk-resident scale: an
// XMark database built an order of magnitude past the other benchmarks,
// then (1) cold and warm query latency through a pool far smaller than the
// file, and (2) insert/delete churn at a fixed live-set size, run once with
// the background checkpointer parked and once with it active on a small WAL
// watermark — the commit tail with the checkpointer running is the
// interference measurement, and the post-round file sizes are the
// steady-state reclamation measurement.
func ScaleExperiment(cfg ScaleConfig) (*ScaleResult, error) {
	def := DefaultScaleConfig()
	if cfg.Scale <= 0 {
		cfg.Scale = def.Scale
	}
	if cfg.PoolBytes <= 0 {
		cfg.PoolBytes = def.PoolBytes
	}
	if cfg.ChurnRounds <= 0 {
		cfg.ChurnRounds = def.ChurnRounds
	}
	if cfg.ChurnSteps <= 0 {
		cfg.ChurnSteps = def.ChurnSteps
	}
	if cfg.LiveSet <= 0 {
		cfg.LiveSet = def.LiveSet
	}
	if cfg.CheckpointWALBytes <= 0 {
		cfg.CheckpointWALBytes = def.CheckpointWALBytes
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "twigbench-scale")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "xmark10.twigdb")

	out := &ScaleResult{
		Bench:      "BENCH_7",
		Experiment: "disk-resident-scale",
		Dataset:    "XMark",
		Scale:      cfg.Scale,
		Strategy:   plan.DataPathsPlan.String(),
		PoolMB:     float64(cfg.PoolBytes) / (1 << 20),
		Note: "pool << data: every cold query faults real pages from the database file. " +
			"churn phases run the identical workload; 'ckpt-active' uses a small WAL watermark so the " +
			"background checkpointer migrates and compacts concurrently with the committing writer.",
	}

	// Build phase: generous pool, incremental index family (ROOTPATHS +
	// DATAPATHS — the churn phase maintains them across every mutation).
	t0 := time.Now()
	db, err := engine.Open(engine.Config{Path: path, BufferPoolBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		return nil, err
	}
	out.Nodes = db.NodeCount()
	out.BuildMS = float64(time.Since(t0).Microseconds()) / 1000
	if err := db.Close(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil {
		out.FileMB = float64(fi.Size()) / (1 << 20)
	}

	// Cold/warm query phase through the small pool.
	t0 = time.Now()
	rdb, err := engine.Open(engine.Config{Path: path, BufferPoolBytes: cfg.PoolBytes})
	if err != nil {
		return nil, err
	}
	out.ReopenMS = float64(time.Since(t0).Microseconds()) / 1000
	_, distinct, err := parallelQueryStream(1)
	if err != nil {
		rdb.Close()
		return nil, err
	}
	rdb.ResetPoolStats()
	r0, _ := rdb.Device().Counters()
	var coldLat []time.Duration
	for _, pat := range distinct {
		t := time.Now()
		if _, err := rdb.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
			rdb.Close()
			return nil, fmt.Errorf("bench: cold %s: %w", pat.Source, err)
		}
		coldLat = append(coldLat, time.Since(t))
	}
	out.ColdQuery = latQuantiles(coldLat)
	ps := rdb.PoolStats()
	if ps.Fetches > 0 {
		out.ColdHitRate = float64(ps.Hits) / float64(ps.Fetches)
	}
	r1, _ := rdb.Device().Counters()
	out.DeviceReads = r1 - r0

	var warmLat []time.Duration
	for i := 0; i < Repeats; i++ {
		for _, pat := range distinct {
			t := time.Now()
			if _, err := rdb.Read(pat, pinnedOpts(plan.DataPathsPlan)); err != nil {
				rdb.Close()
				return nil, err
			}
			warmLat = append(warmLat, time.Since(t))
		}
	}
	out.WarmQuery = latQuantiles(warmLat)
	if err := rdb.Close(); err != nil {
		return nil, err
	}

	// Churn phases: identical workload, checkpointer parked (watermark far
	// beyond the WAL this workload writes) vs active (small watermark).
	parked, err := runChurnPhase("ckpt-parked", path, cfg, 1<<50)
	if err != nil {
		return nil, err
	}
	active, err := runChurnPhase("ckpt-active", path, cfg, cfg.CheckpointWALBytes)
	if err != nil {
		return nil, err
	}
	out.Churn = []ScaleChurn{parked, active}
	return out, nil
}
