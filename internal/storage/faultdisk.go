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
// A FaultInjector is a deterministic, seedable source of storage faults; a
// FaultDisk wraps any Device and consults the injector on every operation.
// The FileDisk cooperates: when a FaultDisk wraps a FileDisk, the injector
// is handed down so faults fire at the *media* level — a bit flip lands on
// the raw bytes read from the file, below the checksum, so the corruption
// is detected rather than silently served; a torn write really persists
// only a prefix of the WAL record while the process believes it succeeded.
// Wrapping the in-memory Disk applies faults at the Device interface
// instead (there is no checksum below it, so bit flips and torn writes are
// silent there — useful for testing callers that must tolerate garbage).

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultReadErr makes a page read fail with an ErrInjected error.
	FaultReadErr FaultKind = iota
	// FaultWriteErr makes a page write (or WAL append) fail.
	FaultWriteErr
	// FaultFsyncErr makes an fsync fail. On a FileDisk this poisons the
	// device (see ErrPoisoned); the in-memory Disk has no fsync, so the
	// kind is inert there.
	FaultFsyncErr
	// FaultBitFlip flips one random bit of a page image as it is read from
	// the media. Under a FileDisk the checksum catches it; under the
	// in-memory Disk it is silent corruption.
	FaultBitFlip
	// FaultTornWrite persists only a prefix of a write while reporting
	// success — the classic torn page. Under a FileDisk the torn WAL frame
	// fails its CRC on the next read of that page.
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

// faultSink is implemented by devices that apply injected faults at the
// media level themselves (FileDisk). NewFaultDisk hands the injector down
// and becomes a pure pass-through, so faults are applied exactly once and
// below any integrity checks.
type faultSink interface {
	SetFaultInjector(*FaultInjector)
}

// FaultDisk wraps a Device and injects faults from a FaultInjector. For
// devices implementing faultSink (FileDisk) it delegates injection to the
// device; for plain devices (the in-memory Disk) it applies read/write
// faults, bit flips and torn writes at the Device interface, and fsync
// faults are inert.
type FaultDisk struct {
	inner Device
	inj   *FaultInjector
	media bool // inner applies faults itself
}

var _ Device = (*FaultDisk)(nil)

// NewFaultDisk wraps dev with fault injection driven by inj.
func NewFaultDisk(dev Device, inj *FaultInjector) *FaultDisk {
	fd := &FaultDisk{inner: dev, inj: inj}
	if sink, ok := dev.(faultSink); ok {
		sink.SetFaultInjector(inj)
		fd.media = true
	}
	return fd
}

// Injector returns the driving injector.
func (d *FaultDisk) Injector() *FaultInjector { return d.inj }

// Unwrap returns the wrapped device.
func (d *FaultDisk) Unwrap() Device { return d.inner }

// Allocate reserves one new zeroed page.
func (d *FaultDisk) Allocate() PageID { return d.inner.Allocate() }

// AllocateN reserves n consecutive zeroed pages.
func (d *FaultDisk) AllocateN(n int) PageID { return d.inner.AllocateN(n) }

// Free returns page id to the wrapped device's free list. Free-list
// mutations ride the same WAL append path as page writes, so for a
// media-level device (FileDisk) write faults over free-list pages fire
// there; for plain devices an injected write error fails the free cleanly
// (the page simply stays allocated — never a double allocation).
func (d *FaultDisk) Free(id PageID) error {
	if d.media {
		return d.inner.Free(id)
	}
	d.inj.sleepLatency()
	if err := d.inj.writeError(); err != nil {
		return fmt.Errorf("storage: free of page %d: %w", id, err)
	}
	return d.inner.Free(id)
}

// Read reads page id, possibly failing, stalling, or flipping a bit.
func (d *FaultDisk) Read(id PageID, buf []byte) error {
	if d.media {
		return d.inner.Read(id, buf)
	}
	d.inj.sleepLatency()
	if err := d.inj.readError(); err != nil {
		return fmt.Errorf("storage: read of page %d: %w", id, err)
	}
	if err := d.inner.Read(id, buf); err != nil {
		return err
	}
	d.inj.bitFlip(buf[:PageSize])
	return nil
}

// Write writes page id, possibly failing or persisting only a torn prefix.
func (d *FaultDisk) Write(id PageID, buf []byte) error {
	if d.media {
		return d.inner.Write(id, buf)
	}
	d.inj.sleepLatency()
	if err := d.inj.writeError(); err != nil {
		return fmt.Errorf("storage: write of page %d: %w", id, err)
	}
	if cut, ok := d.inj.tornCut(PageSize); ok {
		// Persist buf[:cut] over the old image: read-modify-write so the
		// tail keeps its previous contents, as a real torn write would.
		torn := make([]byte, PageSize)
		if err := d.inner.Read(id, torn); err != nil {
			return err
		}
		copy(torn[:cut], buf[:cut])
		return d.inner.Write(id, torn)
	}
	return d.inner.Write(id, buf)
}

// NumPages returns the number of allocated pages.
func (d *FaultDisk) NumPages() int { return d.inner.NumPages() }

// SizeBytes returns the allocated size in bytes.
func (d *FaultDisk) SizeBytes() int64 { return d.inner.SizeBytes() }

// Counters returns cumulative (reads, writes).
func (d *FaultDisk) Counters() (reads, writes int64) { return d.inner.Counters() }

// DeviceStats returns the wrapped device's counters plus the injector's
// fault count.
func (d *FaultDisk) DeviceStats() DeviceStats {
	st := d.inner.DeviceStats()
	st.InjectedFaults = d.inj.TotalInjected()
	return st
}
