// Package storage provides the paged storage substrate beneath every index
// structure: FileDisk, a device of fixed-size checksummed pages sealed at
// sync points under alternating superblocks, with a write-ahead log of
// logical commits between them, and an LRU buffer pool over it with
// pin/unpin semantics and I/O counters. A FileDisk sits on two Files — a database file and its
// WAL — which are real files for a database opened at a path and
// in-memory files otherwise; everything above the Files runs the same code.
//
// The paper runs on DB2 with a 40MB buffer pool over a non-memory-resident
// data set so that the number of index/page accesses dominates query time.
// Every page crossing the pool boundary is copied and counted, so the
// *relative* costs the paper measures (one index lookup vs. a cascade of
// joins; 1 relation vs. m relations) are preserved and observable via Stats
// even when the files are in memory.
package storage

// PageSize is the size of every page in bytes (8KB, a common RDBMS default).
const PageSize = 8192

// PageID identifies a page on the disk. Valid ids start at 0.
type PageID int32

// InvalidPage is the zero-like sentinel for "no page".
const InvalidPage PageID = -1

// DeviceStats are cumulative FileDisk I/O counters — the observability
// surface the paper-reproduction benchmarks read alongside PoolStats: page
// reads and writes, real file I/O in bytes, and the WAL and sync point
// counters that describe the durability work.
type DeviceStats struct {
	Reads        int64 // page reads served
	Writes       int64 // page slots written: evictions, sync-point flushes, catalog chains, free-list trunks
	BytesRead    int64 // bytes read by page reads
	BytesWritten int64 // bytes written: page slots plus WAL records
	WALAppends   int64 // logical records appended to the WAL, one per logged commit
	WALFsyncs    int64 // fsyncs of the WAL (one per group-commit batch)
	WALBytes     int64 // current WAL length in bytes
	// CommitsSinceSync is how many logical commits the WAL holds past the
	// last sync point: what a crash now would replay at the next open.
	CommitsSinceSync int64
	// GroupCommitBatches counts the fsync batches performed by the
	// group-commit path (FileDisk.SyncTo): each batch makes every commit
	// appended before it durable, so commits/batches > 1 means concurrent
	// commits amortised their fsyncs.
	GroupCommitBatches int64
	Checkpoints        int64 // sync points sealed (superblocks written)

	// Free-list reclamation counters (see docs/STORAGE.md).
	PagesFreed  int64 // pages pushed onto the free list
	PagesReused int64 // allocations served from the free list
	FileBytes   int64 // current database file size in bytes
	// FreeListResets counts recoveries that found an invalid free list (a
	// trunk without its marker or with a count above capacity, an id out
	// of range, equal to the catalog root or listed twice, a trunk cycle,
	// or an unreadable trunk) and emptied it instead of risking double
	// allocation.
	FreeListResets int64

	// Fault-hardening counters.
	ChecksumFailures  int64 // page reads that failed CRC validation
	ChecksumRetries   int64 // transparent re-reads after a CRC failure
	InjectedFaults    int64 // faults fired by an attached FaultInjector
	RecoveredCommits  int64 // logical records the last recovery kept for replay
	WALBytesDiscarded int64 // torn/corrupt WAL tail bytes truncated at open
	Poisoned          bool  // device rejected further writes after a failed fsync
}
