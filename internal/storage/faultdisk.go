package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection.
//
// A FaultInjector is a deterministic, seedable source of storage faults. It
// has one mode: FileDisk.SetFaultInjector attaches it at the *media* level —
// a bit flip lands on the raw bytes read from the file, below the checksum,
// so the corruption is detected rather than silently served; a torn write
// really persists only a prefix of the WAL record while the process
// believes it succeeded. The in-memory Disk has no checksum to detect
// either, so it takes no injector.

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultReadErr makes a page read fail with an ErrInjected error.
	FaultReadErr FaultKind = iota
	// FaultWriteErr makes a page write (or WAL append) fail.
	FaultWriteErr
	// FaultFsyncErr makes an fsync fail, which poisons the device (see
	// ErrPoisoned).
	FaultFsyncErr
	// FaultBitFlip flips one random bit of a page image as it is read from
	// the media, below the checksum that catches it.
	FaultBitFlip
	// FaultTornWrite persists only a prefix of a write while reporting
	// success — the classic torn page. The torn WAL frame fails its CRC on
	// the next read of that page.
	FaultTornWrite
	// FaultENOSPC makes a write fail with an error wrapping ErrNoSpace.
	FaultENOSPC
	// FaultLatency stalls an operation for the spec's Latency duration.
	FaultLatency

	numFaultKinds = int(FaultLatency) + 1
)

// String names the kind for logs and bench output.
func (k FaultKind) String() string {
	switch k {
	case FaultReadErr:
		return "read-err"
	case FaultWriteErr:
		return "write-err"
	case FaultFsyncErr:
		return "fsync-err"
	case FaultBitFlip:
		return "bit-flip"
	case FaultTornWrite:
		return "torn-write"
	case FaultENOSPC:
		return "enospc"
	case FaultLatency:
		return "latency"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultSpec describes one fault rule. Exactly one trigger applies: when
// Prob > 0 the rule fires probabilistically on each eligible operation;
// otherwise it fires once, on the After-th eligible operation (After=0
// fires on the first). A non-sticky rule is exhausted after its first
// firing; a Sticky rule latches and fires on every subsequent operation —
// a dead device stays dead.
type FaultSpec struct {
	Kind    FaultKind
	After   int           // fire on the After-th eligible op (counted rules)
	Prob    float64       // per-op firing probability (probabilistic rules)
	Sticky  bool          // latch after the first firing
	Latency time.Duration // stall duration for FaultLatency
}

// FaultStats is a snapshot of the injector's activity.
type FaultStats struct {
	Total  int64               // total faults fired
	Counts map[FaultKind]int64 // per-kind firing counts
}

// FaultInjector evaluates fault rules deterministically from a seed. It is
// safe for concurrent use; the armed flag gates the whole injector so a
// harness can set up (load documents, build indexes) un-faulted and then
// arm it for the measured phase. A new injector starts armed.
type FaultInjector struct {
	armed atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	rules []faultRule
	total int64
	count [numFaultKinds]int64
}

type faultRule struct {
	spec      FaultSpec
	seen      int  // eligible ops observed (counted rules)
	latched   bool // sticky rule that has fired
	exhausted bool // one-shot rule that has fired
}

// NewFaultInjector returns an armed injector evaluating specs in order with
// a deterministic RNG seeded by seed: the same seed and the same operation
// sequence reproduce the same faults.
func NewFaultInjector(seed int64, specs ...FaultSpec) *FaultInjector {
	fi := &FaultInjector{rng: rand.New(rand.NewSource(seed))}
	for _, s := range specs {
		fi.rules = append(fi.rules, faultRule{spec: s})
	}
	fi.armed.Store(true)
	return fi
}

// Arm enables fault firing.
func (fi *FaultInjector) Arm() { fi.armed.Store(true) }

// Disarm disables fault firing (rule state is retained, not reset).
func (fi *FaultInjector) Disarm() { fi.armed.Store(false) }

// Armed reports whether the injector is firing.
func (fi *FaultInjector) Armed() bool { return fi.armed.Load() }

// TotalInjected returns the total number of faults fired so far.
func (fi *FaultInjector) TotalInjected() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.total
}

// Stats returns a snapshot of firing counts.
func (fi *FaultInjector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	st := FaultStats{Total: fi.total, Counts: map[FaultKind]int64{}}
	for k, n := range fi.count {
		if n > 0 {
			st.Counts[FaultKind(k)] = n
		}
	}
	return st
}

// fire evaluates the rules for one eligible operation of the given kind and
// returns the spec of the rule that fired, if any.
func (fi *FaultInjector) fire(kind FaultKind) (FaultSpec, bool) {
	if !fi.armed.Load() {
		return FaultSpec{}, false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for i := range fi.rules {
		r := &fi.rules[i]
		if r.spec.Kind != kind || r.exhausted {
			continue
		}
		hit := false
		switch {
		case r.latched:
			hit = true
		case r.spec.Prob > 0:
			hit = fi.rng.Float64() < r.spec.Prob
		default:
			hit = r.seen == r.spec.After
			r.seen++
		}
		if !hit {
			continue
		}
		if r.spec.Sticky {
			r.latched = true
		} else if r.spec.Prob == 0 {
			r.exhausted = true
		}
		fi.total++
		fi.count[kind]++
		return r.spec, true
	}
	return FaultSpec{}, false
}

// readError returns the injected error for a read, if one fires.
func (fi *FaultInjector) readError() error {
	if _, ok := fi.fire(FaultReadErr); ok {
		return fmt.Errorf("%w: read error", ErrInjected)
	}
	return nil
}

// writeError returns the injected error for a write, if one fires
// (FaultWriteErr, then FaultENOSPC).
func (fi *FaultInjector) writeError() error {
	if _, ok := fi.fire(FaultWriteErr); ok {
		return fmt.Errorf("%w: write error", ErrInjected)
	}
	if _, ok := fi.fire(FaultENOSPC); ok {
		return fmt.Errorf("%w: %w", ErrInjected, ErrNoSpace)
	}
	return nil
}

// fsyncError returns the injected error for an fsync, if one fires.
func (fi *FaultInjector) fsyncError() error {
	if _, ok := fi.fire(FaultFsyncErr); ok {
		return fmt.Errorf("%w: fsync error", ErrInjected)
	}
	return nil
}

// bitFlip flips one deterministic-random bit of buf if a FaultBitFlip rule
// fires, and reports whether it did.
func (fi *FaultInjector) bitFlip(buf []byte) bool {
	if _, ok := fi.fire(FaultBitFlip); !ok || len(buf) == 0 {
		return false
	}
	fi.mu.Lock()
	bit := fi.rng.Intn(len(buf) * 8)
	fi.mu.Unlock()
	buf[bit/8] ^= 1 << (bit % 8)
	return true
}

// tornCut returns the prefix length to persist for an n-byte write if a
// FaultTornWrite rule fires.
func (fi *FaultInjector) tornCut(n int) (int, bool) {
	if _, ok := fi.fire(FaultTornWrite); !ok || n < 2 {
		return 0, false
	}
	fi.mu.Lock()
	cut := 1 + fi.rng.Intn(n-1)
	fi.mu.Unlock()
	return cut, true
}

// sleepLatency stalls for the rule's Latency if a FaultLatency rule fires.
func (fi *FaultInjector) sleepLatency() {
	if spec, ok := fi.fire(FaultLatency); ok && spec.Latency > 0 {
		time.Sleep(spec.Latency)
	}
}
