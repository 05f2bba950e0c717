package twigdb

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// Re-exported error sentinels of the fault-hardened storage layer. Match
// them with errors.Is; the wrapped chains carry the specific page, cause or
// injected-fault details.
var (
	// ErrReadOnly rejects every mutation once the database has entered
	// degraded read-only mode (after a failed fsync poisoned the device).
	// Queries keep being served from the last published snapshot.
	ErrReadOnly = engine.ErrReadOnly
	// ErrCorruptPage marks a page whose checksum (or structural header)
	// failed verification — a flipped bit, a torn write, or any other
	// corruption of the database file or write-ahead log.
	ErrCorruptPage = storage.ErrCorruptPage
	// ErrInjected tags every error produced by fault injection, so tests
	// can tell injected failures from organic ones.
	ErrInjected = storage.ErrInjected
	// ErrPoisoned marks operations rejected because an earlier fsync
	// failure poisoned the device (fsyncgate semantics: after a failed
	// fsync the kernel may have dropped the dirty pages, so pretending a
	// retry could succeed would risk silent data loss).
	ErrPoisoned = storage.ErrPoisoned
)

// FaultKind names one injectable fault class.
type FaultKind int

const (
	// FaultReadError fails a page read with an ErrInjected error.
	FaultReadError FaultKind = iota
	// FaultWriteError fails a page write or WAL append with an ErrInjected
	// error. The write is not applied, so the failure is clean and
	// retryable.
	FaultWriteError
	// FaultFsyncError fails an fsync. On a file-backed database this
	// poisons the device and degrades the engine to read-only mode.
	FaultFsyncError
	// FaultBitFlip flips one bit of a page image as it is read from the
	// file. The flip lands below the page checksum, so it is detected: a
	// one-shot flip is healed by a transparent re-read, a sticky one
	// surfaces as ErrCorruptPage.
	FaultBitFlip
	// FaultTornWrite persists only a prefix of a write while reporting
	// success — the classic crash/power-loss failure mode.
	FaultTornWrite
	// FaultNoSpace fails a write with an ENOSPC-style ErrNoSpace error.
	FaultNoSpace
	// FaultLatency stalls the operation for the spec's Latency duration.
	FaultLatency
)

var faultKindToInternal = map[FaultKind]storage.FaultKind{
	FaultReadError:  storage.FaultReadErr,
	FaultWriteError: storage.FaultWriteErr,
	FaultFsyncError: storage.FaultFsyncErr,
	FaultBitFlip:    storage.FaultBitFlip,
	FaultTornWrite:  storage.FaultTornWrite,
	FaultNoSpace:    storage.FaultENOSPC,
	FaultLatency:    storage.FaultLatency,
}

// String names the fault kind.
func (k FaultKind) String() string {
	if ik, ok := faultKindToInternal[k]; ok {
		return ik.String()
	}
	return "unknown"
}

// FaultSpec is one fault rule. Exactly one trigger applies: with Prob > 0
// the rule fires independently with that probability on every eligible
// operation; otherwise it is counted and fires on the After-th eligible
// operation (After 0 = the first). A non-Sticky counted rule fires once and
// is spent; a Sticky rule latches on its first firing and then fires on
// every subsequent eligible operation, emulating a persistently failed
// medium.
type FaultSpec struct {
	Kind    FaultKind
	After   int           // fire on the After-th eligible operation (counted rules)
	Prob    float64       // per-operation firing probability (probabilistic rules)
	Sticky  bool          // latch after the first firing
	Latency time.Duration // stall duration for FaultLatency
}

// FaultInjection configures deterministic storage fault injection (see
// docs/FAULTS.md). Faults apply at the media level of the page device:
// bit flips land below the page checksums and are therefore detected, read
// and write errors surface as typed ErrInjected failures, and fsync
// failures exercise the poisoning/degraded-read-only machinery. The whole
// injector is deterministic from Seed, so a failing run is replayable.
type FaultInjection struct {
	// Seed drives the injector's private RNG (probabilistic rules and bit
	// positions). Runs with equal seeds, specs and operation sequences
	// inject identical faults.
	Seed int64
	// Armed starts the injector enabled. Leave false to open, load and
	// build un-faulted, then enable the rules with DB.SetFaultsArmed(true)
	// for the measured phase.
	Armed bool
	// Specs are the fault rules; see FaultSpec.
	Specs []FaultSpec
}

// Health describes the database's availability state plus the storage
// counters that explain it. ReadOnly only means mutations are rejected —
// queries keep being served from the last published snapshot.
type Health struct {
	// ReadOnly reports degraded read-only mode; Cause carries its root
	// cause ("" while healthy).
	ReadOnly bool
	Cause    string
	// SnapshotSeq is the published snapshot's version number — the state
	// queries are served from.
	SnapshotSeq uint64
	// Poisoned reports that a failed fsync poisoned the device (always
	// true when ReadOnly is).
	Poisoned bool
	// ChecksumFailures counts page or WAL-frame checksum verifications
	// that failed; ChecksumRetries counts the transparent re-reads that
	// recovered one.
	ChecksumFailures int64
	ChecksumRetries  int64
	// InjectedFaults counts faults fired by the configured injector.
	InjectedFaults int64
	// RecoveredCommits and WALBytesDiscarded describe the last recovery:
	// commits replayed from the WAL, and bytes of torn/corrupt tail
	// discarded beyond the last valid commit.
	RecoveredCommits  int64
	WALBytesDiscarded int64
}

// Health returns the current availability state; lock-free and safe to
// call from monitoring paths at any frequency.
func (db *DB) Health() Health {
	h := db.eng.Health()
	out := Health{
		ReadOnly:          h.ReadOnly,
		SnapshotSeq:       h.SnapshotSeq,
		Poisoned:          h.Device.Poisoned,
		ChecksumFailures:  h.Device.ChecksumFailures,
		ChecksumRetries:   h.Device.ChecksumRetries,
		InjectedFaults:    h.Device.InjectedFaults,
		RecoveredCommits:  h.Device.RecoveredCommits,
		WALBytesDiscarded: h.Device.WALBytesDiscarded,
	}
	if h.Cause != nil {
		out.Cause = h.Cause.Error()
	}
	return out
}

// SetFaultsArmed arms or disarms the configured fault injector (no-op when
// Options.FaultInjection was not set). The usual shape: open with Armed
// false, load and build un-faulted, then arm for the measured phase.
func (db *DB) SetFaultsArmed(armed bool) { db.eng.SetFaultsArmed(armed) }

// FaultStats reports how many faults the configured injector has fired,
// total and per kind. Zero-valued when fault injection is not configured.
type FaultStats struct {
	Total  int64
	Counts map[FaultKind]int64
}

// FaultStats returns the injector's firing counters.
func (db *DB) FaultStats() FaultStats {
	inj := db.eng.FaultInjector()
	if inj == nil {
		return FaultStats{}
	}
	s := inj.Stats()
	out := FaultStats{Total: s.Total, Counts: make(map[FaultKind]int64)}
	for pub, internal := range faultKindToInternal {
		if n := s.Counts[internal]; n != 0 {
			out.Counts[pub] = n
		}
	}
	return out
}

// newFaultInjector translates the public FaultInjection configuration into
// the storage-level injector handed to the engine.
func newFaultInjector(fi *FaultInjection) (*storage.FaultInjector, error) {
	specs := make([]storage.FaultSpec, len(fi.Specs))
	for i, s := range fi.Specs {
		ik, ok := faultKindToInternal[s.Kind]
		if !ok {
			return nil, errors.New("twigdb: unknown fault kind")
		}
		specs[i] = storage.FaultSpec{
			Kind:    ik,
			After:   s.After,
			Prob:    s.Prob,
			Sticky:  s.Sticky,
			Latency: s.Latency,
		}
	}
	inj := storage.NewFaultInjector(fi.Seed, specs...)
	if !fi.Armed {
		inj.Disarm()
	}
	return inj, nil
}
