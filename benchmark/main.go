// Command benchmark is the repository's one benchmark: four workloads over
// twig queries and durable commits, end-to-end metrics through the public
// twigdb package, and a separate traced run that attributes the time to
// the layers. BENCHMARK.json at the repository root names every metric it
// emits; README.md in this directory explains them.
//
//	benchmark -workload twig-hot -seed 1 -seconds 15 -trace 0
//	benchmark -workload commit-durable -trace 1 -trace-out spans.jsonl
//	benchmark -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything for people goes to
// standard error, and -out appends the run to a result file -compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// header records where and how a run was made, so two result files can be
// told apart before their numbers are compared.
type header struct {
	CPUsOnline         int     `json:"cpus_online"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	GoVersion          string  `json:"go_version"`
	GitCommit          string  `json:"git_commit"`
	Seed               int64   `json:"seed"`
	DataSeed           int64   `json:"data_seed"`
	RoundSeconds       float64 `json:"round_seconds"`
	ColdPoolBytes      int64   `json:"cold_pool_bytes"`
	CheckpointWALBytes int64   `json:"checkpoint_wal_bytes"`
}

// runRecord is one run in a result file.
type runRecord struct {
	Header   header     `json:"header"`
	Workload string     `json:"workload"`
	Trace    int        `json:"trace"`
	Result   *runResult `json:"result"`
}

// resultFile is what -out writes and -compare reads. This change defines
// the benchmark and claims no gain, so claim stays null; a later change
// that claims one states it in its own issue, not here.
type resultFile struct {
	Runs  []runRecord `json:"runs"`
	Claim *string     `json:"claim"`
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRun(path string, rec runRecord) error {
	var file resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Runs = append(file.Runs, rec)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed for parent and query choice, payloads and shuffle order")
		dataSeed = flag.Int64("data-seed", 1, "seed for the generated documents (2 is held out: re-check claims on it)")
		seconds  = flag.Float64("seconds", 15, "timed duration of a run, split over 5 rounds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans here as JSON lines")
		out      = flag.String("out", "", "append this run to a result file (for -compare)")
		workdir  = flag.String("workdir", ".bench_build/data", "directory for the database files of a run")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec     = flag.String("benchmark-json", "BENCHMARK.json", "with -compare: the bounds to apply")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}

	// The load shape is fixed: one process, two processors, at most two
	// session goroutines.
	runtime.GOMAXPROCS(2)
	if runtime.NumCPU() < 2 && *trace == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: 1 CPU online; two sessions would be time-sliced, so no end-to-end numbers are emitted")
		os.Exit(2)
	}
	specs := workloads
	if *workload != "all" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		specs = []*workloadSpec{w}
	}
	hdr := header{
		CPUsOnline: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), Seed: *seed, DataSeed: *dataSeed, RoundSeconds: *seconds / rounds,
		ColdPoolBytes: coldPoolBytes, CheckpointWALBytes: durableCheckpointWAL,
	}
	hdrJSON, _ := json.Marshal(hdr)
	fmt.Fprintf(os.Stderr, "benchmark: %s\n", hdrJSON)

	for _, w := range specs {
		cfg := &runConfig{spec: w, seed: *seed, dataSeed: *dataSeed, seconds: *seconds, scaleDiv: 1, setups: setupRepeats, workdir: *workdir}
		fmt.Fprintf(os.Stderr, "== %s (trace %d): %s\n", w.name, *trace, w.why)
		var res *runResult
		var err error
		defs := endToEnd
		if *trace == 0 {
			res, err = cfg.run(os.Stderr)
		} else {
			defs = perLayer
			res, err = cfg.runTraced(os.Stderr, *traceOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, renderResult(defs, res))
		if *out != "" {
			if err := appendRun(*out, runRecord{Header: hdr, Workload: w.name, Trace: *trace, Result: res}); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// renderResult is the table for people.
func renderResult(defs []metricDef, res *runResult) string {
	var b strings.Builder
	width := 0
	for _, d := range defs {
		width = max(width, len(d.name))
	}
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-*s  %s %s\n", width, d.name, formatValue(res.Metrics[d.name].Value), d.unit)
	}
	for _, k := range sortedKeys(res.Observed) {
		fmt.Fprintf(&b, "  (observed) %s = %s\n", k, formatValue(res.Observed[k]))
	}
	fmt.Fprintf(&b, "  correct=%v attempted=%d failed=%d fail_share=%s\n", res.Correct, res.Attempted, res.Failed,
		formatValue(float64(res.Failed)/float64(max(res.Attempted, 1))))
	return b.String()
}
