package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// FaultsConfig tunes the fault-injection smoke experiment.
type FaultsConfig struct {
	Scale int   // dataset scale multiplier
	Seed  int64 // injector + workload seed (replayable)
	Steps int   // workload steps run under armed faults
	// Specs are the fault rules; empty uses the default probabilistic mix
	// plus a one-shot fsync failure partway through.
	Specs []storage.FaultSpec
	// Dir holds the benchmark database file; empty uses a temp directory
	// removed afterwards.
	Dir string
}

// DefaultFaultsConfig mirrors the acceptance setup: a probabilistic mix of
// media faults with a one-shot fsync failure, so the run exercises
// checksum detection, transparent retries AND the degraded read-only path.
func DefaultFaultsConfig() FaultsConfig {
	return FaultsConfig{
		Scale: 1,
		Seed:  1,
		Steps: 400,
		Specs: []storage.FaultSpec{
			{Kind: storage.FaultBitFlip, Prob: 0.01},
			{Kind: storage.FaultReadErr, Prob: 0.005},
			{Kind: storage.FaultTornWrite, Prob: 0.005},
			{Kind: storage.FaultWriteErr, Prob: 0.005},
			{Kind: storage.FaultLatency, Prob: 0.002, Latency: 100 * time.Microsecond},
			{Kind: storage.FaultFsyncErr, After: 30},
		},
	}
}

// FaultsResult is the fault-injection smoke run, the FAULTS.json payload.
// The robustness contract it certifies: under injected storage faults the
// engine returns correct results or typed errors — WrongAnswers and
// UntypedErrors must both be zero.
type FaultsResult struct {
	Bench      string `json:"bench"`
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Scale      int    `json:"scale"`
	Seed       int64  `json:"seed"`
	Steps      int    `json:"steps"`

	Queries        int64 `json:"queries"`
	QueryErrors    int64 `json:"query_errors"` // all typed
	Mutations      int64 `json:"mutations"`
	MutationErrors int64 `json:"mutation_errors"` // all typed
	WrongAnswers   int64 `json:"wrong_answers"`   // must be 0
	UntypedErrors  int64 `json:"untyped_errors"`  // must be 0

	Injected       int64            `json:"injected"` // faults fired by the injector
	InjectedByKind map[string]int64 `json:"injected_by_kind"`
	Detected       int64            `json:"detected"` // checksum verifications that failed
	Retried        int64            `json:"retried"`  // transparent retries that healed one

	Degraded      bool   `json:"degraded"` // engine entered read-only mode
	DegradedCause string `json:"degraded_cause,omitempty"`

	Note string `json:"note,omitempty"`
}

// String renders the result as a text table.
func (r *FaultsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fault injection smoke (XMark scale %d, seed %d, %d steps) ==\n", r.Scale, r.Seed, r.Steps)
	fmt.Fprintf(&b, "injected faults      %10d   (", r.Injected)
	first := true
	for _, k := range []string{"bit-flip", "read-err", "write-err", "torn-write", "fsync-err", "enospc", "latency"} {
		if n := r.InjectedByKind[k]; n > 0 {
			if !first {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %d", k, n)
			first = false
		}
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "detected (checksum)  %10d\n", r.Detected)
	fmt.Fprintf(&b, "retried (healed)     %10d\n", r.Retried)
	fmt.Fprintf(&b, "queries              %10d   (%d typed errors, %d wrong answers)\n", r.Queries, r.QueryErrors, r.WrongAnswers)
	fmt.Fprintf(&b, "mutations            %10d   (%d typed errors)\n", r.Mutations, r.MutationErrors)
	fmt.Fprintf(&b, "untyped errors       %10d\n", r.UntypedErrors)
	if r.Degraded {
		fmt.Fprintf(&b, "degraded read-only   %10s   (%s)\n", "yes", r.DegradedCause)
	} else {
		fmt.Fprintf(&b, "degraded read-only   %10s\n", "no")
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Note)
	}
	return b.String()
}

// WriteJSON writes the result to path.
func (r *FaultsResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// faultTyped is the allowlist of error roots a faulted engine may surface.
var faultTyped = []error{
	storage.ErrInjected,
	storage.ErrCorruptPage,
	storage.ErrPoisoned,
	storage.ErrNoSpace,
	engine.ErrReadOnly,
}

func isTypedFault(err error) bool {
	for _, e := range faultTyped {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FaultsExperiment runs the XMark workload against a file-backed database
// with a deterministic fault injector armed, verifying every answered
// query against the naive in-memory matcher and every failure against the
// typed-error allowlist. It returns an error (failing the run) if any
// query is answered wrongly or any error is untyped.
func FaultsExperiment(cfg FaultsConfig) (*FaultsResult, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 400
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = DefaultFaultsConfig().Specs
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "twigbench-faults")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "xmark.twigdb")

	out := &FaultsResult{
		Bench:          "FAULTS",
		Experiment:     "fault-injection-smoke",
		Dataset:        "XMark",
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Steps:          cfg.Steps,
		InjectedByKind: map[string]int64{},
		Note: "every answered query is differential-checked against the naive matcher; " +
			"wrong_answers and untyped_errors must be 0 (see docs/FAULTS.md).",
	}

	inj := storage.NewFaultInjector(cfg.Seed, cfg.Specs...)
	inj.Disarm() // build un-faulted
	db, err := engine.Open(engine.Config{Path: path, BufferPoolBytes: 1 << 20, Faults: inj})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * cfg.Scale}))
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		return nil, err
	}
	rootID := db.Store().Docs[0].Root.ID
	_, distinct, err := parallelQueryStream(1)
	if err != nil {
		return nil, err
	}

	db.SetFaultsArmed(true)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for step := 0; step < cfg.Steps; step++ {
		if rng.Intn(10) == 0 {
			out.Mutations++
			frag := fmt.Sprintf("<item><name>fault-smoke-%d</name></item>", step)
			sub, perr := xmldb.ParseString(frag)
			if perr != nil {
				return nil, perr
			}
			if err := db.InsertSubtree(rootID, sub.Root); err != nil {
				out.MutationErrors++
				if !isTypedFault(err) {
					out.UntypedErrors++
					return out, fmt.Errorf("bench: untyped mutation error at step %d: %w", step, err)
				}
			}
			continue
		}
		out.Queries++
		pat := distinct[rng.Intn(len(distinct))]
		res, err := db.Read(pat, pinnedOpts(plan.DataPathsPlan))
		ids := res.IDs
		if err != nil {
			out.QueryErrors++
			if !isTypedFault(err) {
				out.UntypedErrors++
				return out, fmt.Errorf("bench: untyped query error at step %d (%s): %w", step, pat.Source, err)
			}
			continue
		}
		if want := naive.Match(db.Store(), pat); !sameIDs(ids, want) {
			out.WrongAnswers++
			return out, fmt.Errorf("bench: WRONG ANSWER at step %d (%s): got %d ids, oracle %d", step, pat.Source, len(ids), len(want))
		}
	}

	h := db.Health()
	out.Degraded = h.ReadOnly
	if h.Cause != nil {
		out.DegradedCause = h.Cause.Error()
	}
	out.Detected = h.Device.ChecksumFailures
	out.Retried = h.Device.ChecksumRetries
	st := inj.Stats()
	out.Injected = st.Total
	for k, n := range st.Counts {
		out.InjectedByKind[k.String()] = n
	}
	return out, nil
}
