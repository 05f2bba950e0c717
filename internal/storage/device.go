package storage

// Device is the page-device abstraction beneath the buffer pool. Two
// implementations exist: Disk, the historical simulated in-memory page
// array, and FileDisk, a durable single-file database with a write-ahead
// log, page checksums and crash recovery. The pool, the B+-trees and the
// engine are written against this interface, so an in-memory database and
// a file-backed one run the same code above the device. Only FileDisk
// takes a FaultInjector: faults are injected below its checksums, so every
// corruption they cause is detected.
type Device interface {
	// Allocate reserves one new zeroed page and returns its id.
	Allocate() PageID
	// AllocateN reserves n consecutive zeroed pages in one call (one mutex
	// acquisition instead of n) and returns the first id; the run occupies
	// [first, first+n). n <= 0 returns InvalidPage.
	AllocateN(n int) PageID
	// Read copies page id into buf (PageSize bytes).
	Read(id PageID, buf []byte) error
	// Write persists buf (PageSize bytes) as page id. For FileDisk the
	// write goes to the WAL and becomes durable at the next commit.
	Write(id PageID, buf []byte) error
	// Free returns page id to the device's free list for reuse by a later
	// Allocate. The page's contents are forfeit the moment Free returns;
	// callers must hold no live references. For FileDisk the free is
	// WAL-covered: it becomes durable with the next commit, and a crash
	// before that commit restores the page.
	Free(id PageID) error
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Counters returns cumulative (reads, writes).
	Counters() (reads, writes int64)
	// DeviceStats returns the full cumulative I/O counters.
	DeviceStats() DeviceStats
}

// DeviceStats are cumulative device I/O counters — the observability
// surface the paper-reproduction benchmarks read alongside PoolStats. For
// the in-memory Disk the byte counters are the pages copied across the
// device boundary; for FileDisk they are real file I/O, and the WAL and
// checkpoint counters describe the durability work.
type DeviceStats struct {
	Reads        int64 // page reads served
	Writes       int64 // page writes accepted
	BytesRead    int64 // bytes read (pages + WAL frames replayed on reads)
	BytesWritten int64 // bytes written (WAL frames + checkpoint copies)
	WALAppends   int64 // WAL records appended (frames + commits)
	WALFsyncs    int64 // fsyncs of the WAL (one per durable boundary)
	WALBytes     int64 // current WAL length in bytes
	// GroupCommitBatches counts the fsync batches performed by the
	// group-commit path (FileDisk.SyncTo): each batch makes every commit
	// appended before it durable, so commits/batches > 1 means concurrent
	// commits amortised their fsyncs.
	GroupCommitBatches int64
	Checkpoints        int64 // checkpoints completed (WAL truncations)

	// Free-list reclamation counters (see docs/STORAGE.md).
	PagesFreed  int64 // pages pushed onto the free list
	PagesReused int64 // allocations served from the free list
	FileBytes   int64 // current database file size in bytes (FileDisk only)
	// FreeListResets counts recoveries that found an invalid free-list
	// chain (bad marker, out-of-range or cyclic next pointer) and reset
	// FreeHead to InvalidPage instead of risking double allocation.
	FreeListResets int64

	// Fault-hardening counters (FileDisk only; zero on the in-memory Disk).
	ChecksumFailures  int64 // page reads that failed CRC validation
	ChecksumRetries   int64 // transparent re-reads after a CRC failure
	InjectedFaults    int64 // faults fired by an attached FaultInjector
	RecoveredCommits  int64 // commit records replayed by the last recovery
	WALBytesDiscarded int64 // torn/corrupt WAL tail bytes truncated at open
	Poisoned          bool  // device rejected further writes after a failed fsync
}
