// Package bench builds the evaluation datasets and regenerates every table
// and figure of the paper's Section 5 (PAPER.md maps the paper onto this
// repository; experiments.go has one function per figure). Timings are
// wall-clock totals over warm repeated runs, as in the paper ("total query
// execution time of 10 independent runs with a warm cache"), and every row
// also carries the substrate's work counters so the plan-shape claims can be
// verified machine-independently.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// Repeats is the paper's run count per measurement.
const Repeats = 10

// Dataset is one loaded-and-indexed evaluation database.
type Dataset struct {
	Name string
	DB   *engine.DB
}

// BuildXMark loads the synthetic XMark document at the given scale and
// builds the full index family.
func BuildXMark(scale int) (*Dataset, error) {
	db := engine.New(engine.DefaultConfig())
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * scale}))
	if err := db.BuildAll(); err != nil {
		return nil, err
	}
	return &Dataset{Name: "XMark", DB: db}, nil
}

// BuildDBLP loads the synthetic DBLP document at the given scale and builds
// the full index family.
func BuildDBLP(scale int) (*Dataset, error) {
	db := engine.New(engine.DefaultConfig())
	db.AddDocument(datagen.DBLP(datagen.DBLPConfig{Papers: 1500 * scale}))
	if err := db.BuildAll(); err != nil {
		return nil, err
	}
	return &Dataset{Name: "DBLP", DB: db}, nil
}

// Measurement is one (query, strategy) cell.
type Measurement struct {
	QueryID  string
	Strategy plan.Strategy
	Results  int
	Elapsed  time.Duration // total over Repeats warm runs
	Stats    plan.ExecStats
}

// pinnedOpts is a serial read pinned to strategy s.
func pinnedOpts(s plan.Strategy) engine.ReadOpts {
	return engine.ReadOpts{Strategy: s}
}

// Run measures a query under a strategy: one warm-up run, then Repeats
// timed runs.
func Run(ds *Dataset, q workload.Query, strat plan.Strategy) (Measurement, error) {
	pat, err := xpath.Parse(q.XPath)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s: %w", q.ID, err)
	}
	warm, err := ds.DB.Read(pat, pinnedOpts(strat))
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s via %v: %w", q.ID, strat, err)
	}
	start := time.Now()
	for i := 0; i < Repeats; i++ {
		if _, err := ds.DB.Read(pat, pinnedOpts(strat)); err != nil {
			return Measurement{}, err
		}
	}
	return Measurement{
		QueryID:  q.ID,
		Strategy: strat,
		Results:  len(warm.IDs),
		Elapsed:  time.Since(start),
		Stats:    *warm.Stats,
	}, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms renders a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// mb renders bytes in MB with 2 decimals.
func mb(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1<<20))
}

// Fig11Strategies are the five strategies of Figures 11 and 12.
var Fig11Strategies = []plan.Strategy{
	plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan,
	plan.DataGuideEdgePlan, plan.FabricEdgePlan,
}

// Fig13Strategies are the four strategies of Figure 13.
var Fig13Strategies = []plan.Strategy{
	plan.RootPathsPlan, plan.DataPathsPlan, plan.ASRPlan, plan.JoinIndexPlan,
}

// queryTable runs queries × strategies and renders one row per query with
// per-strategy time columns.
func queryTable(title string, ds *Dataset, queries []workload.Query, strategies []plan.Strategy) (*Table, error) {
	t := &Table{Title: title, Header: []string{"query", "results"}}
	for _, s := range strategies {
		t.Header = append(t.Header, s.String()+" ms")
	}
	for _, q := range queries {
		row := []string{q.ID, ""}
		for _, s := range strategies {
			m, err := Run(ds, q, s)
			if err != nil {
				return nil, err
			}
			row[1] = fmt.Sprint(m.Results)
			row = append(row, ms(m.Elapsed))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("time = total of %d warm runs, dataset %s", Repeats, ds.Name))
	return t, nil
}
