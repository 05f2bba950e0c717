package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesMetrics: BENCHMARK.json and metrics.go / workloads.go
// name the same workloads and metrics, with the same units and directions.
func TestManifestMatchesMetrics(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from workloads.go %q (name or why)", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", kind, g.Name)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: %s: bound present=%v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestMiniatureRun runs every workload, untraced and traced, on tiny
// datasets with 0.1s rounds, and checks that exactly the metrics
// BENCHMARK.json names come out, with their units, and that nothing
// fails. A change that breaks an internal entry point the probes depend
// on fails here.
func TestMiniatureRun(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("1 CPU online: the benchmark refuses to emit end-to-end numbers")
	}
	runtime.GOMAXPROCS(2)
	m := readManifest(t)
	for _, w := range workloads {
		cfg := &runConfig{spec: w, seed: 1, dataSeed: 1, seconds: 0.5, scaleDiv: 8, setups: 1, workdir: t.TempDir()}
		for trace, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			var res *runResult
			var err error
			if trace == 0 {
				res, err = cfg.run(io.Discard)
			} else {
				res, err = cfg.runTraced(io.Discard, "")
			}
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s not emitted", w.name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace %d: %s has unit %q, want %q", w.name, trace, d.Name, got.Unit, d.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, got.Value)
				}
			}
		}
	}
}
