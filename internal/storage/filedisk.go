package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// File format (see docs/STORAGE.md for the full specification):
//
//   - the database is a single file: a 4KB superblock followed by page
//     slots of pageSlotSize bytes at offset superblockSize + id*pageSlotSize;
//     each slot is the 8KB page image followed by a CRC32-IEEE trailer,
//     verified on every read so a flipped bit surfaces as ErrCorruptPage
//     instead of garbage keys;
//   - the write-ahead log lives beside it at path+".wal";
//   - page writes go only to the WAL; a commit record makes them durable;
//     a checkpoint copies committed frames into the database file, rewrites
//     the superblock and truncates the WAL.
//
// Superblock layout (big-endian, CRC32-IEEE over the preceding bytes):
//
//	offset  size  field
//	0       8     magic "TWIGDBF1"
//	8       4     format version (2; v1 had no page checksum trailers)
//	12      4     page size (8192)
//	16      4     numPages
//	20      4     catalog root page id
//	24      4     free-list head page id (InvalidPage = empty list)
//	28      4     crc32
//
// Free pages are chained through their own images: a free page's payload is
// the marker "TWIGFREE" followed by the big-endian id of the next free page
// (InvalidPage terminates the chain). Pushing and popping rewrite those
// images through the ordinary WAL frame path and move the head through the
// commit record's FreeHead field, so free-list mutations commit and recover
// atomically with the page writes they accompany. Files that predate
// reclamation always carry FreeHead == InvalidPage and open unchanged.
const (
	superblockSize  = 4096
	fileFormatMagic = "TWIGDBF1"
	fileFormatVer   = 2
	superblockUsed  = 32 // bytes covered by the layout above, incl. crc

	pageTrailerSize = 4 // CRC32-IEEE of the page image
	pageSlotSize    = PageSize + pageTrailerSize

	freePageMagic = "TWIGFREE" // first 8 bytes of every free page image
	freePageUsed  = len(freePageMagic) + 4
)

// WALSuffix is appended to the database path to name the write-ahead log.
const WALSuffix = ".wal"

// slotOff returns the file offset of page id's slot.
func slotOff(id PageID) int64 {
	return superblockSize + int64(id)*pageSlotSize
}

// CheckpointStage names a boundary inside FileDisk.Checkpoint (and inside
// Compact's free-list splice). The crash-during-checkpoint torture test
// installs a hook (SetCheckpointHook) that snapshots the files at each
// boundary and verifies recovery from every one of them.
type CheckpointStage int

const (
	// CkptPagesMigrated: committed frames copied into the database file;
	// the superblock still describes the previous checkpoint.
	CkptPagesMigrated CheckpointStage = iota
	// CkptSuperblockWritten: new superblock written, file not yet fsynced.
	CkptSuperblockWritten
	// CkptFileSynced: database file durable, WAL not yet truncated.
	CkptFileSynced
	// CkptWALTruncated: WAL truncated and fsynced — checkpoint complete.
	CkptWALTruncated
	// CkptBatchMigrated fires after each bounded batch of the incremental
	// migration phase — committed frames are being copied into the file
	// while writers keep committing; the WAL still holds everything.
	CkptBatchMigrated
	// CkptFreeSpliced fires inside Compact after the rebuilt free chain and
	// the shrunken metadata are committed and fsynced to the WAL, before
	// the database file is physically truncated.
	CkptFreeSpliced
)

// Incremental checkpoint tuning: batches of ckptBatchPages frames are
// migrated without holding the disk latch, and once the remaining
// un-migrated delta is at most ckptFinalizePages the checkpoint finishes
// under the latch — that bounded finalize is the only moment writers wait.
const (
	ckptBatchPages    = 128
	ckptFinalizePages = 64
)

// poisonCause boxes the first fsync error so it can sit in an
// atomic.Pointer.
type poisonCause struct{ err error }

// FileDisk is the durable Device: a single paged database file plus a
// write-ahead log. All writes are WAL appends; Commit fsyncs the log and
// marks everything before it durable; Checkpoint migrates committed frames
// into the database file and truncates the log; OpenFileDisk replays the
// committed WAL prefix and discards torn tails, recovering the last
// committed state after a crash.
//
// Integrity: every database-file page slot carries a CRC trailer and every
// WAL frame a CRC suffix, both verified on the read path (with one
// transparent retry, since a transient fault may not recur); failures
// surface as ErrCorruptPage. A failed fsync poisons the disk (fsyncgate
// semantics: the page cache can no longer be trusted), rejecting every
// subsequent write, commit and checkpoint with ErrPoisoned while reads
// keep working.
//
// Reads of distinct pages proceed in parallel (shared latch); writes,
// commits and checkpoints are exclusive. FileDisk assumes a single process
// owns the file.
type FileDisk struct {
	mu   sync.RWMutex
	file *os.File
	wal  *os.File
	path string

	numPages int
	meta     Meta             // last committed metadata
	walIndex map[PageID]int64 // page -> payload offset of latest committed frame
	pending  map[PageID]int64 // frames appended since the last commit
	walSize  int64
	// committedEnd is the WAL offset just past the last commit record — the
	// prefix the incremental checkpointer may migrate and truncate. Bytes in
	// [committedEnd, walSize) are pending frames of an open transaction.
	committedEnd int64

	// freeHead is the working head of the free page chain, including
	// uncommitted pushes and pops; it is stamped into every commit record,
	// so a crash rolls it back to the last committed head exactly as it
	// rolls back the page images. freeSet mirrors the chain's membership
	// for O(1) double-free detection and for Compact.
	freeHead PageID
	freeSet  map[PageID]struct{}

	// ckptMu serialises checkpoints and compactions with each other (never
	// with writers — that is the point of the incremental checkpointer).
	// Lock order: ckptMu before mu.
	ckptMu sync.Mutex

	// commitSeq numbers commit records as they are appended (guarded by
	// mu); durableSeq is the highest commit sequence known to be durable —
	// advanced by SyncTo's fsyncs and by Checkpoint (which makes every
	// committed state durable through the database file). The gap between
	// them is the group-commit window: commits whose records are appended
	// but whose callers are still waiting in SyncTo for a shared fsync.
	commitSeq  int64
	durableSeq atomic.Int64

	// syncMu serialises group-commit fsyncs: the holder is the batch
	// leader, syncing the log for itself and for every commit appended
	// before it started; waiters that acquire it afterwards usually find
	// their commit already durable and return without an fsync of their own.
	syncMu sync.Mutex

	// poisoned holds the first fsync failure; once set the disk rejects
	// writes forever (the kernel may have dropped dirty cache pages, so
	// nothing since the last durable boundary can be trusted to persist).
	poisoned atomic.Pointer[poisonCause]

	// inj, when set, injects faults at the media level: bit flips on raw
	// reads (below the CRC check), torn/failed WAL appends, fsync errors.
	// Set once via SetFaultInjector before the disk is shared.
	inj *FaultInjector

	// ckptHook, when set, fires at each CheckpointStage boundary
	// (test-only; runs under mu).
	ckptHook func(CheckpointStage)

	// statLock groups multi-counter updates so DeviceStats returns one
	// consistent snapshot (e.g. a WAL append's walAppends and
	// bytesWritten land together); the counters stay atomic so every
	// individual access is race-free.
	statLock                obs.StatLock
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	walAppends, walFsyncs   atomic.Int64
	groupBatches            atomic.Int64
	checkpoints             atomic.Int64
	checksumFails           atomic.Int64
	checksumRetries         atomic.Int64
	pagesFreed              atomic.Int64
	pagesReused             atomic.Int64
	freeResets              atomic.Int64

	// Latency observers, set once via SetLatencyObservers before the
	// disk is shared (nil = not observed).
	fsyncHist *obs.Histogram // per physical WAL fsync, ns
	batchHist *obs.Histogram // commits made durable per fsync
	ckptHist  *obs.Histogram // per checkpoint, ns

	// Recovery facts from OpenFileDisk (set before the disk is shared).
	recoveredCommits int64
	walDiscarded     int64
}

var _ Device = (*FileDisk)(nil)

// OpenFileDisk opens (creating if absent) the database file at path and its
// WAL at path+".wal", validates the superblock, and recovers: the WAL is
// scanned, frames covered by a valid commit record become the current page
// versions, the last commit record's metadata becomes authoritative, and
// any torn tail is truncated away.
func OpenFileDisk(path string) (*FileDisk, error) {
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	wal, err := os.OpenFile(path+WALSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("storage: open %s%s: %w", path, WALSuffix, err)
	}
	f := &FileDisk{
		file:     file,
		wal:      wal,
		path:     path,
		meta:     Meta{NumPages: 0, CatalogRoot: InvalidPage, FreeHead: InvalidPage},
		walIndex: map[PageID]int64{},
		pending:  map[PageID]int64{},
		freeHead: InvalidPage,
		freeSet:  map[PageID]struct{}{},
	}
	st, err := file.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > 0 {
		if f.meta, err = readSuperblock(file); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Stamp a fresh file with an empty superblock immediately, so the
		// file is self-describing from its first byte onward: a crash
		// inside the first checkpoint (pages migrated, superblock not yet
		// rewritten) must leave a valid-versioned file, not one that reads
		// as "bad magic".
		if err := writeSuperblock(file, f.meta); err != nil {
			f.Close()
			return nil, err
		}
		if err := file.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: initial superblock sync: %w", err)
		}
	}
	wst, err := wal.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	scan, err := scanWAL(wal)
	if err != nil {
		f.Close()
		return nil, err
	}
	if scan.hasCommit {
		f.meta = scan.meta
		f.walIndex = scan.index
	}
	// Discard the torn tail so later appends start at a committed boundary.
	if err := wal.Truncate(scan.committedEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncating torn wal tail: %w", err)
	}
	f.walSize = scan.committedEnd
	f.committedEnd = scan.committedEnd
	f.numPages = int(f.meta.NumPages)
	f.recoveredCommits = scan.commits
	f.walDiscarded = wst.Size() - scan.committedEnd
	f.recoverFreeList()
	return f, nil
}

// recoverFreeList walks the recovered free chain from meta.FreeHead,
// validating every link: each id must be in range, unvisited (no cycles),
// and its image must carry the free-page marker. A valid chain populates
// freeHead/freeSet; any anomaly abandons the whole chain — freeHead resets
// to InvalidPage (persisted at the next commit) and FreeListResets counts
// the reset. Abandoning leaks the chained pages, which is always safe;
// trusting a corrupt chain could hand out a live page twice, which never is.
// Runs before the disk is shared, so the read helpers need no latch.
func (f *FileDisk) recoverFreeList() {
	head := f.meta.FreeHead
	if head == InvalidPage {
		return
	}
	seen := map[PageID]struct{}{}
	buf := make([]byte, PageSize)
	for id := head; id != InvalidPage; {
		if int(id) < 0 || int(id) >= f.numPages {
			f.resetFreeList()
			return
		}
		if _, dup := seen[id]; dup {
			f.resetFreeList()
			return
		}
		var err error
		if off, inWAL := f.walIndex[id]; inWAL {
			err = f.readChecked(func() error { return f.readWALFrameLocked(id, off, buf) })
		} else {
			err = f.readChecked(func() error { return f.readFileSlotLocked(id, buf) })
		}
		if err != nil {
			f.resetFreeList()
			return
		}
		next, ok := parseFreePage(buf)
		if !ok {
			f.resetFreeList()
			return
		}
		seen[id] = struct{}{}
		id = next
	}
	f.freeHead = head
	f.freeSet = seen
}

// resetFreeList abandons the free chain after a validation failure.
func (f *FileDisk) resetFreeList() {
	f.freeHead = InvalidPage
	f.freeSet = map[PageID]struct{}{}
	f.meta.FreeHead = InvalidPage
	f.freeResets.Add(1)
}

// freePageImage renders the image of a free page chaining to next.
func freePageImage(buf []byte, next PageID) {
	clear(buf[:PageSize])
	copy(buf, freePageMagic)
	binary.BigEndian.PutUint32(buf[len(freePageMagic):], uint32(next))
}

// parseFreePage decodes a free page image, returning the next free id.
func parseFreePage(buf []byte) (PageID, bool) {
	if string(buf[:len(freePageMagic)]) != freePageMagic {
		return InvalidPage, false
	}
	return PageID(binary.BigEndian.Uint32(buf[len(freePageMagic):freePageUsed])), true
}

// SetFaultInjector attaches a fault injector at the media level: bit flips
// land on the raw bytes read from the file (below the CRC check, so they
// are detected), torn writes persist only a prefix of a WAL record, fsync
// faults poison the disk. Must be called before the disk is shared across
// goroutines; engine.Open calls it when Config.Faults is set.
func (f *FileDisk) SetFaultInjector(inj *FaultInjector) { f.inj = inj }

// Poisoned returns the fsync error that poisoned the disk, or nil while it
// is healthy.
func (f *FileDisk) Poisoned() error {
	if pc := f.poisoned.Load(); pc != nil {
		return pc.err
	}
	return nil
}

// poison records the first fatal fsync error; later calls keep the original
// cause.
func (f *FileDisk) poison(err error) {
	f.poisoned.CompareAndSwap(nil, &poisonCause{err: err})
}

// poisonedError returns an ErrPoisoned-wrapping error when the disk is
// poisoned, nil otherwise.
func (f *FileDisk) poisonedError() error {
	if pc := f.poisoned.Load(); pc != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, pc.err)
	}
	return nil
}

// Meta returns the last committed metadata (after OpenFileDisk: the
// recovered state).
func (f *FileDisk) Meta() Meta {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.meta
}

// WALSize returns the current WAL length in bytes. Immediately after a
// Commit it is the offset of the commit boundary — the crash-recovery
// torture tests use it to mark durable states.
func (f *FileDisk) WALSize() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.walSize
}

// Path returns the database file path.
func (f *FileDisk) Path() string { return f.path }

// Allocate reserves one new page, preferring the free list: popping the
// head re-reads its image (through the ordinary checksummed read path) to
// follow the chain. The pop itself writes nothing — the new head rides the
// next commit record, and until then a crash restores the old chain, which
// still lists the popped page; that is safe because the allocation it
// served was uncommitted too. Any validation failure abandons the chain
// and falls back to tail allocation rather than risk double-allocating.
//
// The caller owns the popped page's stale free-marker image; every
// allocation path above (Pool.NewPage) installs a fresh image before the
// page can be read, exactly as it must for never-written tail pages.
func (f *FileDisk) Allocate() PageID {
	f.mu.Lock()
	if f.freeHead != InvalidPage {
		id := f.freeHead
		buf := walFramePool.Get().(*[]byte)
		img := (*buf)[:PageSize]
		var err error
		if off, inWAL := f.pending[id]; inWAL {
			err = f.readChecked(func() error { return f.readWALFrameLocked(id, off, img) })
		} else if off, inWAL := f.walIndex[id]; inWAL {
			err = f.readChecked(func() error { return f.readWALFrameLocked(id, off, img) })
		} else {
			err = f.readChecked(func() error { return f.readFileSlotLocked(id, img) })
		}
		next, ok := InvalidPage, false
		if err == nil {
			next, ok = parseFreePage(img)
		}
		walFramePool.Put(buf)
		if ok && int(id) >= 0 && int(id) < f.numPages {
			f.freeHead = next
			delete(f.freeSet, id)
			f.mu.Unlock()
			f.pagesReused.Add(1)
			return id
		}
		f.resetFreeList()
	}
	first := PageID(f.numPages)
	f.numPages++
	f.mu.Unlock()
	return first
}

// Free pushes page id onto the free chain: its image is rewritten (via the
// WAL, like any page write) to the free marker chaining to the previous
// head, and the head moves to id in the next commit record. A crash before
// that commit rolls the free back; a double free is rejected.
func (f *FileDisk) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return err
	}
	if int(id) < 0 || int(id) >= f.numPages {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	if _, dup := f.freeSet[id]; dup {
		return fmt.Errorf("storage: double free of page %d", id)
	}
	buf := walFramePool.Get().(*[]byte)
	img := (*buf)[:PageSize]
	freePageImage(img, f.freeHead)
	start := f.walSize
	rec := appendWALFrame(make([]byte, 0, walFrameSize), id, img)
	walFramePool.Put(buf)
	if err := f.appendLocked(rec, fmt.Sprintf("free page %d", id)); err != nil {
		return err
	}
	f.pending[id] = start + walFrameHeaderSize
	f.freeHead = id
	f.freeSet[id] = struct{}{}
	f.pagesFreed.Add(1)
	return nil
}

// AllocateN reserves n consecutive zeroed pages and returns the first id.
// Runs never come from the free list (no contiguity there); allocation is
// a counter bump — the file grows only when pages are checkpointed, and
// uncommitted allocations simply vanish on crash (the recovered page count
// comes from the last commit record).
func (f *FileDisk) AllocateN(n int) PageID {
	if n <= 0 {
		return InvalidPage
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	first := PageID(f.numPages)
	f.numPages += n
	return first
}

// FreePages returns the current length of the free chain (committed plus
// uncommitted mutations).
func (f *FileDisk) FreePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.freeSet)
}

// walFramePool recycles frame-sized buffers for read-path WAL frame
// verification (one whole frame must be read to check its CRC).
var walFramePool = sync.Pool{
	New: func() any { b := make([]byte, walFrameSize); return &b },
}

// Read copies page id into buf: the latest WAL frame if one exists
// (uncommitted frames are visible to the owning process), otherwise the
// database file; pages allocated but never written read as zeroes. Both
// sources are CRC-verified; a mismatch is retried once (a transient fault
// may not recur) and then reported as ErrCorruptPage.
func (f *FileDisk) Read(id PageID, buf []byte) error {
	if f.inj != nil {
		f.inj.sleepLatency()
		if err := f.inj.readError(); err != nil {
			return fmt.Errorf("storage: read of page %d: %w", id, err)
		}
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if int(id) < 0 || int(id) >= f.numPages {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	f.statLock.Lock()
	f.reads.Add(1)
	f.bytesRead.Add(PageSize)
	f.statLock.Unlock()
	off, inWAL := f.pending[id]
	if !inWAL {
		off, inWAL = f.walIndex[id]
	}
	if inWAL {
		return f.readChecked(func() error { return f.readWALFrameLocked(id, off, buf) })
	}
	return f.readChecked(func() error { return f.readFileSlotLocked(id, buf) })
}

// readChecked runs read, retrying a single time on a checksum failure
// before giving up, and maintains the checksum counters.
func (f *FileDisk) readChecked(read func() error) error {
	err := read()
	if err == nil || !errors.Is(err, ErrCorruptPage) {
		return err
	}
	f.statLock.Lock()
	f.checksumFails.Add(1)
	f.checksumRetries.Add(1)
	f.statLock.Unlock()
	err = read()
	if err != nil && errors.Is(err, ErrCorruptPage) {
		f.statLock.Lock()
		f.checksumFails.Add(1)
		f.statLock.Unlock()
	}
	return err
}

// readWALFrameLocked reads and CRC-verifies the whole WAL frame whose
// payload starts at payloadOff, copying the page image into buf.
func (f *FileDisk) readWALFrameLocked(id PageID, payloadOff int64, buf []byte) error {
	fbp := walFramePool.Get().(*[]byte)
	rec := (*fbp)[:walFrameSize]
	defer walFramePool.Put(fbp)
	n, err := f.wal.ReadAt(rec, payloadOff-walFrameHeaderSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: wal read of page %d: %w", id, err)
	}
	if n < walFrameSize {
		return fmt.Errorf("storage: short wal frame for page %d: %w", id, ErrCorruptPage)
	}
	if f.inj != nil {
		f.inj.bitFlip(rec[walFrameHeaderSize : walFrameHeaderSize+PageSize])
	}
	if rec[0] != walRecFrame || PageID(binary.BigEndian.Uint32(rec[1:5])) != id || !walCRCOK(rec) {
		return fmt.Errorf("storage: wal frame for page %d: %w", id, ErrCorruptPage)
	}
	copy(buf[:PageSize], rec[walFrameHeaderSize:walFrameHeaderSize+PageSize])
	return nil
}

// readFileSlotLocked reads page id's slot from the database file into buf
// and verifies the CRC trailer. A slot wholly beyond the file end, or an
// all-zero slot inside it, is a page that was allocated but never
// checkpointed and reads as zeroes.
func (f *FileDisk) readFileSlotLocked(id PageID, buf []byte) error {
	off := slotOff(id)
	n, err := f.file.ReadAt(buf[:PageSize], off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read of page %d: %w", id, err)
	}
	if n == 0 {
		for i := range buf[:PageSize] {
			buf[i] = 0
		}
		return nil
	}
	for i := n; i < PageSize; i++ {
		buf[i] = 0
	}
	var tr [pageTrailerSize]byte
	tn, err := f.file.ReadAt(tr[:], off+PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read of page %d trailer: %w", id, err)
	}
	for i := tn; i < pageTrailerSize; i++ {
		tr[i] = 0
	}
	if f.inj != nil {
		f.inj.bitFlip(buf[:PageSize])
	}
	stored := binary.BigEndian.Uint32(tr[:])
	if crc32.ChecksumIEEE(buf[:PageSize]) == stored {
		return nil
	}
	if stored == 0 && allZero(buf[:PageSize]) {
		return nil // hole inside the file: allocated, never checkpointed
	}
	return fmt.Errorf("storage: page %d checksum mismatch: %w", id, ErrCorruptPage)
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// appendLocked appends one encoded record to the WAL, applying injected
// write faults: an injected error fails the append cleanly (walSize does
// not advance, so a retry overwrites the partial state), while a torn
// write persists only a prefix yet advances walSize and reports success —
// the process believes the append worked, and the corruption surfaces
// later as a CRC failure on the read path or a discarded commit during
// recovery.
func (f *FileDisk) appendLocked(rec []byte, what string) error {
	out := rec
	if f.inj != nil {
		if err := f.inj.writeError(); err != nil {
			return fmt.Errorf("storage: wal append (%s): %w", what, err)
		}
		if cut, ok := f.inj.tornCut(len(rec)); ok {
			out = rec[:cut]
		}
	}
	if _, err := f.wal.WriteAt(out, f.walSize); err != nil {
		return fmt.Errorf("storage: wal append (%s): %w", what, err)
	}
	f.walSize += int64(len(rec))
	f.statLock.Lock()
	f.walAppends.Add(1)
	f.bytesWritten.Add(int64(len(rec)))
	f.statLock.Unlock()
	return nil
}

// Write appends a frame carrying buf as the new image of page id to the
// WAL. The write is volatile until the next Commit.
func (f *FileDisk) Write(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return err
	}
	if int(id) < 0 || int(id) >= f.numPages {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	start := f.walSize
	rec := appendWALFrame(make([]byte, 0, walFrameSize), id, buf[:PageSize])
	if err := f.appendLocked(rec, fmt.Sprintf("page %d", id)); err != nil {
		return err
	}
	f.pending[id] = start + walFrameHeaderSize
	f.statLock.Lock()
	f.writes.Add(1)
	f.statLock.Unlock()
	return nil
}

// Commit appends a commit record carrying meta and fsyncs the WAL: every
// frame appended so far — and meta itself — is now durable and will survive
// a crash. When nothing changed since the last commit the call is a no-op
// (no record, no fsync). Commit is CommitAsync followed by SyncTo; callers
// that can overlap other work between the two (the engine's group-committed
// subtree updates) use the halves directly so concurrent commits coalesce
// into one fsync.
func (f *FileDisk) Commit(meta Meta) error {
	seq, err := f.CommitAsync(meta)
	if err != nil {
		return err
	}
	return f.SyncTo(seq)
}

// CommitAsync appends a commit record carrying meta without forcing it to
// disk, and returns the commit's sequence number: the commit is logically
// applied (Read sees its frames, Meta returns meta) but not yet durable.
// Pass the sequence to SyncTo to wait for durability. When nothing changed
// since the last commit the call is a no-op and returns the current
// sequence (already durable or about to be). The disk owns meta.FreeHead:
// whatever the caller passes is replaced by the current free-chain head,
// so frees and reuses commit atomically with the page images.
func (f *FileDisk) CommitAsync(meta Meta) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitAsyncLocked(meta)
}

func (f *FileDisk) commitAsyncLocked(meta Meta) (int64, error) {
	if err := f.poisonedError(); err != nil {
		return 0, err
	}
	meta.FreeHead = f.freeHead
	if len(f.pending) == 0 && meta == f.meta {
		return f.commitSeq, nil
	}
	rec := appendWALCommit(make([]byte, 0, walCommitSize), meta)
	if err := f.appendLocked(rec, "commit"); err != nil {
		return 0, err
	}
	for id, off := range f.pending {
		f.walIndex[id] = off
	}
	f.pending = map[PageID]int64{}
	f.meta = meta
	f.commitSeq++
	f.committedEnd = f.walSize
	return f.commitSeq, nil
}

// SyncTo blocks until the commit with the given sequence number is durable,
// coalescing concurrent callers into one fsync (group commit): the first
// caller to acquire the sync latch becomes the batch leader and fsyncs the
// log once for every commit appended before it started; later callers find
// their sequence already covered and return without an fsync of their own.
// A checkpoint also satisfies waiters (it makes every committed state
// durable through the database file).
//
// A failed fsync poisons the disk: the leader and every in-flight waiter
// get an ErrPoisoned-wrapping error, and all subsequent writes, commits
// and syncs are rejected — the kernel may have dropped the dirty pages the
// failed fsync covered, so retrying an fsync could "succeed" without ever
// persisting them (fsyncgate).
func (f *FileDisk) SyncTo(seq int64) error {
	if f.durableSeq.Load() >= seq {
		return nil
	}
	if err := f.poisonedError(); err != nil {
		return err
	}
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	if f.durableSeq.Load() >= seq {
		return nil // a leader's batch (or a checkpoint) covered us
	}
	if err := f.poisonedError(); err != nil {
		return err // the previous batch leader poisoned the disk
	}
	f.mu.RLock()
	target := f.commitSeq
	f.mu.RUnlock()
	var err error
	fsyncStart := time.Now()
	if f.inj != nil {
		err = f.inj.fsyncError()
	}
	if err == nil {
		err = f.wal.Sync()
	}
	if err != nil {
		f.poison(fmt.Errorf("wal fsync: %w", err))
		return f.poisonedError()
	}
	if f.fsyncHist != nil {
		f.fsyncHist.Observe(time.Since(fsyncStart).Nanoseconds())
	}
	if f.batchHist != nil {
		// Commits this physical fsync made durable: the group-commit
		// batch the leader is flushing for itself and its waiters.
		if batch := target - f.durableSeq.Load(); batch > 0 {
			f.batchHist.Observe(batch)
		}
	}
	f.statLock.Lock()
	f.walFsyncs.Add(1)
	f.groupBatches.Add(1)
	f.statLock.Unlock()
	storeMax(&f.durableSeq, target)
	return nil
}

// storeMax advances v to at least target (never backwards: a slow fsync
// leader must not undo the progress a checkpoint published meanwhile).
func storeMax(v *atomic.Int64, target int64) {
	for {
		cur := v.Load()
		if cur >= target || v.CompareAndSwap(cur, target) {
			return
		}
	}
}

// migrateSlot copies one committed WAL frame into its database-file slot:
// the frame is CRC-verified before it is copied (a corrupt frame must fail
// the checkpoint, not be re-sealed under a fresh page checksum) and the
// slot is written with a new CRC trailer. Injected write faults apply: an
// error aborts the checkpoint cleanly (the slot stays shadowed by the WAL),
// a torn write persists a prefix the slot CRC will catch if it is ever
// exposed. Runs with or without the latch — the frame offset lies below the
// committed boundary (immutable until the serialized truncation), and the
// slot is invisible to readers while the page has a WAL index entry.
func (f *FileDisk) migrateSlot(id PageID, off int64, scratch []byte) error {
	err := f.readChecked(func() error {
		return f.readWALFrameLocked(id, off, scratch[:PageSize])
	})
	if err != nil {
		return fmt.Errorf("storage: checkpoint read of page %d: %w", id, err)
	}
	binary.BigEndian.PutUint32(scratch[PageSize:], crc32.ChecksumIEEE(scratch[:PageSize]))
	out := scratch[:pageSlotSize]
	if f.inj != nil {
		if err := f.inj.writeError(); err != nil {
			return fmt.Errorf("storage: checkpoint write of page %d: %w", id, err)
		}
		if cut, ok := f.inj.tornCut(pageSlotSize); ok {
			out = scratch[:cut]
		}
	}
	if _, err := f.file.WriteAt(out, slotOff(id)); err != nil {
		return fmt.Errorf("storage: checkpoint write of page %d: %w", id, err)
	}
	f.statLock.Lock()
	f.bytesWritten.Add(pageSlotSize)
	f.statLock.Unlock()
	return nil
}

// Checkpoint migrates every committed WAL frame into the database file,
// rewrites the superblock with the committed metadata, fsyncs the file and
// truncates the WAL. A crash at any point is safe because the WAL is only
// truncated after the database file is durable, and replaying it is
// idempotent.
//
// The migration is incremental: while the un-migrated committed delta is
// large, frames are copied in bounded batches under a shared latch snapshot
// only — writers keep appending and committing concurrently, and pages they
// re-dirty are simply re-copied in a later round (their WAL index entry
// moved, so the delta scan picks them up again). Readers never see a
// half-written slot because any page with a WAL index entry is read from
// the WAL, and entries only disappear here. Once the delta is small the
// checkpoint finishes under the exclusive latch: the remainder is migrated,
// the superblock written, the file fsynced, and the WAL truncated — with
// any frames of a still-open transaction re-appended at the front so the
// checkpoint no longer needs a commit boundary. That bounded finalize is
// the only moment writers wait.
//
// A failed fsync — of the database file or of the WAL truncation — poisons
// the disk.
func (f *FileDisk) Checkpoint() error {
	f.ckptMu.Lock()
	defer f.ckptMu.Unlock()
	if err := f.poisonedError(); err != nil {
		return err
	}
	ckptStart := time.Now()
	scratch := make([]byte, pageSlotSize)
	// Migration rounds. migrated remembers the frame offset each slot
	// already holds, so a page committed again after its copy is re-copied
	// (payload offsets are strictly positive, so the zero value never
	// matches). Rounds are capped: if writers outrun migration the finalize
	// absorbs whatever delta remains.
	migrated := map[PageID]int64{}
	type frameRef struct {
		id  PageID
		off int64
	}
	for round := 0; round < 32; round++ {
		f.mu.RLock()
		delta := make([]frameRef, 0, 64)
		for id, off := range f.walIndex {
			if migrated[id] != off {
				delta = append(delta, frameRef{id, off})
			}
		}
		f.mu.RUnlock()
		if len(delta) <= ckptFinalizePages {
			break
		}
		for start := 0; start < len(delta); start += ckptBatchPages {
			end := min(start+ckptBatchPages, len(delta))
			for _, fr := range delta[start:end] {
				if err := f.migrateSlot(fr.id, fr.off, scratch); err != nil {
					return err
				}
				migrated[fr.id] = fr.off
			}
			f.ckptStage(CkptBatchMigrated)
		}
		// Push the round's slot writes to the media so the finalize fsync
		// is bounded too (no injected fault here: the finalize sync is the
		// deterministic injection point).
		if err := f.file.Sync(); err != nil {
			f.poison(fmt.Errorf("database fsync: %w", err))
			return f.poisonedError()
		}
	}
	// Bounded finalize under the exclusive latch.
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return err
	}
	for id, off := range f.walIndex {
		if migrated[id] == off {
			continue
		}
		if err := f.migrateSlot(id, off, scratch); err != nil {
			return err
		}
	}
	f.ckptStage(CkptPagesMigrated)
	if err := writeSuperblock(f.file, f.meta); err != nil {
		return err
	}
	f.ckptStage(CkptSuperblockWritten)
	var err error
	if f.inj != nil {
		err = f.inj.fsyncError()
	}
	if err == nil {
		err = f.file.Sync()
	}
	if err != nil {
		f.poison(fmt.Errorf("database fsync: %w", err))
		return f.poisonedError()
	}
	f.ckptStage(CkptFileSynced)
	// Preserve the open transaction's frames across the truncation: reread
	// their raw records, truncate, re-append them at the front. Without a
	// commit record they are discarded by recovery, exactly as uncommitted
	// frames should be.
	type pendRec struct {
		id  PageID
		rec []byte
	}
	keep := make([]pendRec, 0, len(f.pending))
	for id, off := range f.pending {
		rec := make([]byte, walFrameSize)
		if _, err := f.wal.ReadAt(rec, off-walFrameHeaderSize); err != nil {
			f.poison(fmt.Errorf("wal reread of pending page %d: %w", id, err))
			return f.poisonedError()
		}
		keep = append(keep, pendRec{id, rec})
	}
	if err := f.wal.Truncate(0); err != nil {
		f.poison(fmt.Errorf("wal truncate: %w", err))
		return f.poisonedError()
	}
	f.walSize = 0
	f.committedEnd = 0
	f.walIndex = map[PageID]int64{}
	newPending := make(map[PageID]int64, len(keep))
	for _, p := range keep {
		if _, err := f.wal.WriteAt(p.rec, f.walSize); err != nil {
			f.poison(fmt.Errorf("wal re-append of pending page %d: %w", p.id, err))
			return f.poisonedError()
		}
		newPending[p.id] = f.walSize + walFrameHeaderSize
		f.walSize += walFrameSize
		f.statLock.Lock()
		f.bytesWritten.Add(walFrameSize)
		f.statLock.Unlock()
	}
	f.pending = newPending
	if err := f.wal.Sync(); err != nil {
		f.poison(fmt.Errorf("wal fsync after truncate: %w", err))
		return f.poisonedError()
	}
	f.statLock.Lock()
	f.walFsyncs.Add(1)
	f.checkpoints.Add(1)
	f.statLock.Unlock()
	if f.ckptHist != nil {
		f.ckptHist.Observe(time.Since(ckptStart).Nanoseconds())
	}
	f.ckptStage(CkptWALTruncated)
	// Every committed state now lives durably in the database file, so any
	// SyncTo waiter still queued for a pre-checkpoint commit is satisfied.
	storeMax(&f.durableSeq, f.commitSeq)
	return nil
}

// Compact trims the maximal all-free suffix of the page array off the file:
// the free chain is rebuilt over the surviving free pages (ascending, so
// repeated compactions converge), the shrunken page count and new head are
// committed and fsynced through the WAL, and only then is the physical file
// truncated — a crash in between leaves harmless extra bytes past the
// logical end, never a lost page. Returns the number of pages trimmed.
//
// Compact skips (returning 0) while a transaction has uncommitted frames:
// the splice needs a commit record, and committing would prematurely seal
// someone else's open transaction.
func (f *FileDisk) Compact() (int, error) {
	f.ckptMu.Lock()
	defer f.ckptMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return 0, err
	}
	if len(f.pending) > 0 {
		return 0, nil
	}
	n := f.numPages
	for n > 0 {
		if _, free := f.freeSet[PageID(n-1)]; !free {
			break
		}
		n--
	}
	trimmed := f.numPages - n
	if trimmed == 0 {
		return 0, nil
	}
	survivors := make([]PageID, 0, len(f.freeSet)-trimmed)
	for id := range f.freeSet {
		if int(id) < n {
			survivors = append(survivors, id)
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	img := make([]byte, PageSize)
	for i, id := range survivors {
		next := InvalidPage
		if i+1 < len(survivors) {
			next = survivors[i+1]
		}
		freePageImage(img, next)
		start := f.walSize
		rec := appendWALFrame(make([]byte, 0, walFrameSize), id, img)
		if err := f.appendLocked(rec, fmt.Sprintf("compact splice page %d", id)); err != nil {
			return 0, err
		}
		f.pending[id] = start + walFrameHeaderSize
	}
	f.freeHead = InvalidPage
	if len(survivors) > 0 {
		f.freeHead = survivors[0]
	}
	for id := range f.freeSet {
		if int(id) >= n {
			delete(f.freeSet, id)
		}
	}
	f.numPages = n
	meta := f.meta
	meta.NumPages = int32(n)
	seq, err := f.commitAsyncLocked(meta)
	if err != nil {
		return 0, err
	}
	var serr error
	if f.inj != nil {
		serr = f.inj.fsyncError()
	}
	if serr == nil {
		serr = f.wal.Sync()
	}
	if serr != nil {
		f.poison(fmt.Errorf("wal fsync during compact: %w", serr))
		return 0, f.poisonedError()
	}
	f.statLock.Lock()
	f.walFsyncs.Add(1)
	f.statLock.Unlock()
	storeMax(&f.durableSeq, seq)
	f.ckptStage(CkptFreeSpliced)
	target := superblockSize + int64(n)*pageSlotSize
	if st, err := f.file.Stat(); err == nil && st.Size() > target {
		if err := f.file.Truncate(target); err != nil {
			// The logical shrink is already committed; physical bytes past
			// the end are harmless, so report without poisoning.
			return trimmed, fmt.Errorf("storage: compact truncate: %w", err)
		}
	}
	return trimmed, nil
}

// SetCheckpointHook installs a callback fired at each CheckpointStage
// boundary (test-only; the hook runs with the disk latch held for the
// finalize stages, and without it for CkptBatchMigrated — the incremental
// batches run unlatched by design).
func (f *FileDisk) SetCheckpointHook(fn func(CheckpointStage)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ckptHook = fn
}

func (f *FileDisk) ckptStage(st CheckpointStage) {
	if f.ckptHook != nil {
		f.ckptHook(st)
	}
}

// Close closes the file handles without committing or checkpointing —
// abandoning uncommitted state exactly as a crash would. Callers that want
// durability commit (and usually checkpoint) first; engine.DB.Close does.
func (f *FileDisk) Close() error {
	err1 := f.file.Close()
	err2 := f.wal.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NumPages returns the number of allocated pages (including allocations
// not yet committed).
func (f *FileDisk) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.numPages
}

// Counters returns cumulative (reads, writes).
func (f *FileDisk) Counters() (reads, writes int64) {
	return f.reads.Load(), f.writes.Load()
}

// SetLatencyObservers installs the storage histograms (any may be nil):
// fsync observes each physical WAL fsync's duration in nanoseconds,
// batch the number of commits that fsync made durable, and ckpt each
// checkpoint's duration in nanoseconds. Set once before the disk is
// shared (the engine does this at Open).
func (f *FileDisk) SetLatencyObservers(fsync, batch, ckpt *obs.Histogram) {
	f.fsyncHist = fsync
	f.batchHist = batch
	f.ckptHist = ckpt
}

// DeviceStats returns the full I/O counters as one consistent snapshot:
// the read retries under the stat lock until it does not overlap any
// multi-counter update, so invariants like "every WAL append's bytes
// are included" hold exactly.
func (f *FileDisk) DeviceStats() DeviceStats {
	var st DeviceStats
	f.statLock.Read(func() {
		st = DeviceStats{
			Reads:              f.reads.Load(),
			Writes:             f.writes.Load(),
			BytesRead:          f.bytesRead.Load(),
			BytesWritten:       f.bytesWritten.Load(),
			WALAppends:         f.walAppends.Load(),
			WALFsyncs:          f.walFsyncs.Load(),
			GroupCommitBatches: f.groupBatches.Load(),
			Checkpoints:        f.checkpoints.Load(),
			ChecksumFailures:   f.checksumFails.Load(),
			ChecksumRetries:    f.checksumRetries.Load(),
			PagesFreed:         f.pagesFreed.Load(),
			PagesReused:        f.pagesReused.Load(),
			FreeListResets:     f.freeResets.Load(),
		}
	})
	st.WALBytes = f.WALSize()
	if fst, err := f.file.Stat(); err == nil {
		st.FileBytes = fst.Size()
	}
	st.RecoveredCommits = f.recoveredCommits
	st.WALBytesDiscarded = f.walDiscarded
	st.Poisoned = f.Poisoned() != nil
	if f.inj != nil {
		st.InjectedFaults = f.inj.TotalInjected()
	}
	return st
}

// writeSuperblock renders meta into the 4KB superblock at offset 0.
func writeSuperblock(file *os.File, m Meta) error {
	buf := make([]byte, superblockSize)
	copy(buf, fileFormatMagic)
	binary.BigEndian.PutUint32(buf[8:], fileFormatVer)
	binary.BigEndian.PutUint32(buf[12:], PageSize)
	binary.BigEndian.PutUint32(buf[16:], uint32(m.NumPages))
	binary.BigEndian.PutUint32(buf[20:], uint32(m.CatalogRoot))
	binary.BigEndian.PutUint32(buf[24:], uint32(m.FreeHead))
	crc := crc32.ChecksumIEEE(buf[:superblockUsed-4])
	binary.BigEndian.PutUint32(buf[superblockUsed-4:], crc)
	if _, err := file.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("storage: superblock write: %w", err)
	}
	return nil
}

// readSuperblock validates and decodes the superblock.
func readSuperblock(file *os.File) (Meta, error) {
	buf := make([]byte, superblockUsed)
	if _, err := file.ReadAt(buf, 0); err != nil {
		return Meta{}, fmt.Errorf("storage: superblock read: %w", err)
	}
	if string(buf[:8]) != fileFormatMagic {
		return Meta{}, fmt.Errorf("storage: not a twigdb database (bad magic)")
	}
	if crc32.ChecksumIEEE(buf[:superblockUsed-4]) != binary.BigEndian.Uint32(buf[superblockUsed-4:]) {
		return Meta{}, fmt.Errorf("storage: superblock checksum mismatch")
	}
	if v := binary.BigEndian.Uint32(buf[8:]); v != fileFormatVer {
		return Meta{}, fmt.Errorf("storage: unsupported format version %d (this build reads version %d)", v, fileFormatVer)
	}
	if ps := binary.BigEndian.Uint32(buf[12:]); ps != PageSize {
		return Meta{}, fmt.Errorf("storage: page size mismatch (file %d, build %d)", ps, PageSize)
	}
	return Meta{
		NumPages:    int32(binary.BigEndian.Uint32(buf[16:])),
		CatalogRoot: PageID(binary.BigEndian.Uint32(buf[20:])),
		FreeHead:    PageID(binary.BigEndian.Uint32(buf[24:])),
	}, nil
}
