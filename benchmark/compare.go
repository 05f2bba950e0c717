package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare applies.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace && r.Result != nil {
			if m, ok := r.Result.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict applies a bound to the medians of two sets of runs. Where either
// side's own run-to-run spread is wider than the bound the difference
// cannot be told from noise, and the row is unresolved rather than ok.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "absent"
	}
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	gain := (mb - ma) / ma // positive = B larger
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric, and one
// per workload and exact per-layer count, for result files A (the parent)
// and B (the change). It returns the process exit code: 1 when a row is
// worse or a count differs.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	var spec benchmarkSpec
	var a, b resultFile
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	bad := false
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, 0, m.Name), b.values(wl.Name, 0, m.Name)
			v := verdict(va, vb, m.Better, m.Bound)
			bad = bad || v == "worse"
			fmt.Fprintf(w, "%-15s %-12s %14s %14s %7.1f%% %7.1f%% %6.0f%%  %s\n", wl.Name, m.Name,
				formatValue(median(va)), formatValue(median(vb)),
				quartileSpread(va)*100, quartileSpread(vb)*100, m.Bound*100, v)
		}
	}
	// Counts must repeat exactly: every traced run of a workload, in both
	// files, on one pair of seeds, reports the same value.
	type seeds struct{ seed, data int64 }
	for _, wl := range spec.Workloads {
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			bySeed := map[seeds][]float64{}
			for _, f := range []*resultFile{&a, &b} {
				for _, r := range f.Runs {
					if r.Workload == wl.Name && r.Trace == 1 && r.Result != nil {
						k := seeds{r.Header.Seed, r.Header.DataSeed}
						bySeed[k] = append(bySeed[k], r.Result.Metrics[d.name].Value)
					}
				}
			}
			for k, vs := range bySeed {
				state := "match"
				for _, v := range vs[1:] {
					if v != vs[0] {
						state, bad = "MISMATCH", true
					}
				}
				fmt.Fprintf(w, "%-15s %-38s seed %d/%d  %d runs  %s %s\n", wl.Name, d.name, k.seed, k.data, len(vs), formatValue(vs[0]), state)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
