package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// The planner-regret experiment: for every workload query, the cost-based
// planner's chosen plan is timed against every pinned strategy, and the
// regret — chosen-plan latency over the best pinned strategy's latency —
// is recorded. A perfect planner has regret 1.0 everywhere; the
// repository's acceptance bar is regret <= 1.25 for at least 90% of the
// workload (see docs/PLANNER.md).

// PlannerConfig tunes the regret experiment.
type PlannerConfig struct {
	// Scale multiplies the synthetic dataset sizes.
	Scale int
	// MinSample is the minimum measured wall-clock per (query, strategy)
	// cell; repetitions double until it is reached, so per-run latencies
	// of microsecond-scale queries stay stable.
	MinSample time.Duration
}

// DefaultPlannerConfig returns the standard regret-run settings.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{Scale: Scale(), MinSample: 25 * time.Millisecond}
}

// PlannerRow is one query's regret measurement.
type PlannerRow struct {
	Dataset  string  `json:"dataset"`
	QueryID  string  `json:"query_id"`
	XPath    string  `json:"xpath"`
	Chosen   string  `json:"chosen"`    // strategy the planner picked
	Best     string  `json:"best"`      // fastest pinned strategy
	ChosenUS float64 `json:"chosen_us"` // per-run latency of the chosen plan
	BestUS   float64 `json:"best_us"`   // per-run latency of the best pinned strategy
	Regret   float64 `json:"regret"`    // ChosenUS / BestUS
	Results  int     `json:"results"`
}

// PlannerResult is the whole experiment.
type PlannerResult struct {
	Scale         int          `json:"scale"`
	Strategies    int          `json:"strategies"`
	Queries       int          `json:"queries"`
	Within25Pct   float64      `json:"within_25pct_fraction"` // fraction of queries with regret <= 1.25
	MeanRegret    float64      `json:"mean_regret"`
	MaxRegret     float64      `json:"max_regret"`
	PickedFastest int          `json:"picked_fastest"` // queries where chosen == best pinned
	PlanCacheHits int64        `json:"plan_cache_hits"`
	Rows          []PlannerRow `json:"rows"`
}

// plannerStrategies is the full pinned contender set, structural-join
// extension included.
var plannerStrategies = []plan.Strategy{
	plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan,
	plan.DataGuideEdgePlan, plan.FabricEdgePlan, plan.ASRPlan,
	plan.JoinIndexPlan, plan.XRelPlan, plan.StructuralJoinPlan,
}

// perRunLatency measures run's warm per-invocation latency, doubling the
// repetition count until at least minSample of wall-clock is observed.
func perRunLatency(minSample time.Duration, run func() error) (time.Duration, error) {
	if err := run(); err != nil { // warm-up (also populates caches)
		return 0, err
	}
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := run(); err != nil {
				return 0, err
			}
		}
		elapsed := time.Since(start)
		if elapsed >= minSample || reps >= 1<<14 {
			return elapsed / time.Duration(reps), nil
		}
		reps *= 2
	}
}

// plannerDataset builds one fully-indexed dataset (the whole family plus
// the containment index, so the planner's candidate set is complete).
func plannerDataset(name string, scale int) (*Dataset, error) {
	var ds *Dataset
	var err error
	if name == "xmark" {
		ds, err = BuildXMark(scale)
	} else {
		ds, err = BuildDBLP(scale)
	}
	if err != nil {
		return nil, err
	}
	if err := ds.DB.Build(index.KindContainment); err != nil {
		return nil, err
	}
	return ds, nil
}

// PlannerExperiment measures planner regret over the XMark and DBLP
// workloads.
func PlannerExperiment(cfg PlannerConfig) (*PlannerResult, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.MinSample <= 0 {
		cfg.MinSample = 25 * time.Millisecond
	}
	out := &PlannerResult{Scale: cfg.Scale, Strategies: len(plannerStrategies)}

	for _, dsName := range []string{"xmark", "dblp"} {
		ds, err := plannerDataset(dsName, cfg.Scale)
		if err != nil {
			return nil, err
		}
		var queries []workload.Query
		for _, q := range workload.All() {
			if q.Dataset == dsName {
				queries = append(queries, q)
			}
		}
		for _, q := range queries {
			row, err := measureQuery(ds.DB, dsName, q, cfg.MinSample)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", dsName, q.ID, err)
			}
			out.Rows = append(out.Rows, row)
		}
		out.PlanCacheHits += ds.DB.QueryCounters().PlanCacheHits
	}

	out.Queries = len(out.Rows)
	within := 0
	for _, r := range out.Rows {
		if r.Regret <= 1.25 {
			within++
		}
		if r.Chosen == r.Best {
			out.PickedFastest++
		}
		out.MeanRegret += r.Regret
		if r.Regret > out.MaxRegret {
			out.MaxRegret = r.Regret
		}
	}
	if out.Queries > 0 {
		out.Within25Pct = float64(within) / float64(out.Queries)
		out.MeanRegret /= float64(out.Queries)
	}
	return out, nil
}

// measureSamples is how many interleaved timing samples each (query,
// contender) cell takes; the per-cell latency is the minimum over samples,
// the standard robust estimator against allocator/GC drift. Without it,
// "best pinned" — a minimum over nine noisy measurements — would be biased
// low against the single chosen-plan measurement, inflating regret with
// pure noise.
const measureSamples = 5

func measureQuery(db *engine.DB, dsName string, q workload.Query, minSample time.Duration) (PlannerRow, error) {
	pat, err := xpath.Parse(q.XPath)
	if err != nil {
		return PlannerRow{}, err
	}
	row := PlannerRow{Dataset: dsName, QueryID: q.ID, XPath: q.XPath}

	// Contenders: every pinned strategy (their minimum is the regret
	// baseline) plus the auto-planner, measured interleaved. The
	// auto-planner's warm-up run inside perRunLatency populates the plan
	// cache, so its timed runs measure the steady state: one cache lookup
	// plus the chosen plan.
	var chosen plan.Strategy
	var results int
	pinned := make([]time.Duration, len(plannerStrategies))
	var chosenLat time.Duration
	for round := 0; round < measureSamples; round++ {
		for i, s := range plannerStrategies {
			s := s
			lat, err := perRunLatency(minSample, func() error {
				_, err := db.Read(pat, pinnedOpts(s))
				return err
			})
			if err != nil {
				return PlannerRow{}, fmt.Errorf("pinned %v: %w", s, err)
			}
			if round == 0 || lat < pinned[i] {
				pinned[i] = lat
			}
		}
		lat, err := perRunLatency(minSample, func() error {
			res, err := db.Read(pat, engine.ReadOpts{Planner: engine.Auto, Workers: 1})
			chosen, results = res.Strategy, len(res.IDs)
			return err
		})
		if err != nil {
			return PlannerRow{}, fmt.Errorf("auto: %w", err)
		}
		if round == 0 || lat < chosenLat {
			chosenLat = lat
		}
	}
	var bestLat time.Duration
	for i, s := range plannerStrategies {
		if row.Best == "" || pinned[i] < bestLat {
			row.Best, bestLat = s.String(), pinned[i]
		}
	}
	row.Chosen = chosen.String()
	row.Results = results
	row.ChosenUS = float64(chosenLat.Nanoseconds()) / 1e3
	row.BestUS = float64(bestLat.Nanoseconds()) / 1e3
	if bestLat > 0 {
		row.Regret = float64(chosenLat) / float64(bestLat)
	}
	return row, nil
}

// WriteJSON writes the result to path (pretty-printed, trailing newline).
func (r *PlannerResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders a human-readable regret table.
func (r *PlannerResult) String() string {
	t := &Table{
		Title: fmt.Sprintf("Planner regret: chosen plan vs best pinned strategy (scale %d, %d strategies)",
			r.Scale, r.Strategies),
		Header: []string{"dataset", "query", "chosen", "best", "chosen µs", "best µs", "regret"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Dataset, row.QueryID, row.Chosen, row.Best,
			fmt.Sprintf("%.1f", row.ChosenUS),
			fmt.Sprintf("%.1f", row.BestUS),
			fmt.Sprintf("%.2f", row.Regret),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("within 25%% of best: %.0f%% of %d queries (acceptance bar: 90%%)", r.Within25Pct*100, r.Queries),
		fmt.Sprintf("picked the outright fastest strategy on %d/%d queries", r.PickedFastest, r.Queries),
		fmt.Sprintf("mean regret %.2f, max regret %.2f, plan cache hits %d", r.MeanRegret, r.MaxRegret, r.PlanCacheHits),
	)
	return t.String()
}
