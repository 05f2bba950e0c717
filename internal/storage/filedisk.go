package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// File format (see docs/STORAGE.md for the full specification):
//
//   - the database is a single file (a File: on disk or in memory): a 4KB
//     superblock followed by page slots of pageSlotSize bytes at offset
//     superblockSize + id*pageSlotSize;
//     each slot is the 8KB page image followed by a CRC32-IEEE trailer,
//     verified on every read so a flipped bit surfaces as ErrCorruptPage
//     instead of garbage keys;
//   - the write-ahead log lives beside it at path+".wal";
//   - page writes go only to the WAL; a commit record makes them durable;
//     a logical record makes a caller-encoded commit durable without any
//     page (see wal.go); a checkpoint copies committed frames into the
//     database file, rewrites the superblock and replaces the WAL with what
//     follows its last commit record.
//
// Superblock layout (big-endian, CRC32-IEEE over the preceding bytes):
//
//	offset  size  field
//	0       8     magic "TWIGDBF1"
//	8       4     format version (4; any other is refused)
//	12      4     page size (8192)
//	16      4     numPages
//	20      4     catalog root page id
//	24      4     free-list head trunk page id (InvalidPage = empty list)
//	28      4     crc32
//
// The free list is a stack of trunk pages. A trunk is itself a free page
// whose image is
//
//	"TWIGTRNK" | next trunk u32 | count u32 | count × free page id u32
//
// (big-endian, at most trunkCapacity ids, InvalidPage ends the stack). The
// trunks are read and validated once at open and then kept in memory: Free
// and Allocate push and pop ids there without device I/O, and each commit
// appends one frame per trunk changed since the previous commit just before
// its commit record, whose FreeHead names the head trunk. Free-list
// mutations therefore commit and recover atomically with the page writes
// they accompany.
const (
	superblockSize  = 4096
	fileFormatMagic = "TWIGDBF1"
	fileFormatVer   = 4
	superblockUsed  = 32 // bytes covered by the layout above, incl. crc

	pageTrailerSize = 4 // CRC32-IEEE of the page image
	pageSlotSize    = PageSize + pageTrailerSize

	trunkMagic    = "TWIGTRNK" // first 8 bytes of every trunk image
	trunkHeader   = len(trunkMagic) + 4 + 4
	trunkCapacity = (PageSize - trunkHeader) / 4 // 2,044 ids per trunk
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
	// CkptFileSynced: database file durable, WAL not yet replaced.
	CkptFileSynced
	// CkptWALTruncated: the WAL replaced by its suffix past the last commit
	// record (uncommitted frames and logical records) and fsynced —
	// checkpoint complete.
	CkptWALTruncated
	// CkptBatchMigrated fires after each bounded batch of the incremental
	// migration phase — committed frames are being copied into the file
	// while writers keep committing; the WAL still holds everything.
	CkptBatchMigrated
	// CkptFreeSpliced fires inside Compact after the rebuilt free list and
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

// FileDisk is the page device beneath the buffer pool: a single paged
// database file plus a write-ahead log, both Files — on disk for a durable
// database, in memory otherwise. All writes are WAL appends; Commit fsyncs
// the log and marks everything before it durable; CommitLogical makes a
// caller-encoded commit durable without pages; Checkpoint migrates
// committed frames into the database file and replaces the log with what
// follows its last commit record;
// OpenFileDisk replays the committed WAL prefix and discards torn tails,
// recovering the last committed page state after a crash, and hands the
// logical commits logged after it back through TakeRecoveredLog.
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
// commits and checkpoints are exclusive. OpenFileDisk takes an exclusive
// advisory lock on the database file (ErrLocked on a second open), which
// Close releases.
type FileDisk struct {
	mu   sync.RWMutex
	file File
	wal  File
	path string // "" for an in-memory disk

	numPages int
	meta     Meta             // last committed metadata
	walIndex map[PageID]int64 // page -> payload offset of latest committed frame
	pending  map[PageID]int64 // frames appended since the last commit
	walSize  int64
	// physEnd is the offset just past the last commit record in the log (0
	// without one).
	physEnd int64
	// logical locates the logical records appended (or recovered) since the
	// last commit record, in order: the commits a crash now would replay.
	// A checkpoint carries them into the replaced log, Compact refuses
	// while there are any, and the next commit record covers them all.
	logical []walSpan
	// floor is the offset below which no frame may join the committed page
	// state: Open sets it to where recovery stopped, past frames it
	// discarded between the logical records it kept, and each commit
	// record carries it (see wal.go).
	floor int64
	// recovered holds the payloads of the logical records recovery found
	// after the last commit record, until TakeRecoveredLog hands them out.
	recovered [][]byte

	// trunks is the working free list, uncommitted pushes and pops
	// included; its head is stamped into every commit record, so a crash
	// rolls the list back to the last commit exactly as it rolls back the
	// page images. Only the head trunk ever changes, so the trunks whose
	// committed image is stale are always the top ones: trunks[:cleanTrunks]
	// match their images, and a commit writes the rest. freeSet mirrors
	// the membership (trunk pages and listed ids) for O(1) double-free
	// detection and for Compact.
	trunks      trunkStack
	cleanTrunks int
	freeSet     map[PageID]struct{}

	// frame is the scratch every appended frame record is encoded into
	// (guarded by mu, written out before mu is released): a commit appends
	// one frame per dirtied page, and a fresh 8KB buffer each would make
	// the commit path's garbage grow with its page count.
	frame []byte

	// ckptMu serialises checkpoints and compactions with each other (never
	// with writers — that is the point of the incremental checkpointer).
	// Lock order: ckptMu before mu.
	ckptMu sync.Mutex

	// commitSeq numbers commit and logical records as they are appended
	// (guarded by mu), continuing from the last record recovery kept;
	// durableSeq is the highest commit sequence known to be durable —
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
	// A checkpoint holds it while it replaces the log file. Lock order:
	// syncMu before mu.
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

// OpenFileDisk opens (creating if absent) the database file at path and its
// WAL at path+".wal", takes an exclusive lock on the database file (a file
// another FileDisk holds open fails with ErrLocked), validates the
// superblock, and recovers: the WAL is scanned, frames covered by a valid
// commit record become the current page versions, the last commit record's
// metadata becomes authoritative, the logical records after it are kept for
// TakeRecoveredLog, and any torn tail is truncated away.
func OpenFileDisk(path string) (*FileDisk, error) {
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	if err := lockFile(file); err != nil {
		file.Close()
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	wal, err := os.OpenFile(path+WALSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("storage: open %s%s: %w", path, WALSuffix, err)
	}
	return openFileDisk(osFile{file}, osFile{wal}, path)
}

// NewMemFileDisk returns an empty FileDisk over two in-memory files — the
// device of a database opened without a path. It runs the same page, WAL,
// checksum, free-list and checkpoint code as a FileDisk on disk; fsyncs are
// no-ops, and nothing outlives the process.
func NewMemFileDisk() *FileDisk {
	f, err := openFileDisk(&memFile{}, &memFile{}, "")
	if err != nil {
		panic(err) // writing and scanning empty in-memory files cannot fail
	}
	return f
}

// openFileDisk validates or stamps the superblock of file and recovers the
// committed prefix of wal (see OpenFileDisk).
func openFileDisk(file, wal File, path string) (*FileDisk, error) {
	f := &FileDisk{
		file:     file,
		wal:      wal,
		path:     path,
		meta:     Meta{NumPages: 0, CatalogRoot: InvalidPage, FreeHead: InvalidPage},
		walIndex: map[PageID]int64{},
		pending:  map[PageID]int64{},
		freeSet:  map[PageID]struct{}{},
	}
	size, err := file.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size > 0 {
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
	walSize, err := wal.Size()
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
	// Discard the torn tail so later appends start at a record boundary.
	if err := wal.Truncate(scan.end); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncating torn wal tail: %w", err)
	}
	f.walSize = scan.end
	f.physEnd = scan.physEnd
	f.floor = scan.end
	f.logical, f.recovered = scan.logical, scan.payloads
	f.commitSeq = scan.seq
	f.durableSeq.Store(scan.seq)
	f.numPages = int(f.meta.NumPages)
	f.recoveredCommits = scan.commits + int64(len(scan.logical))
	f.walDiscarded = walSize - scan.end
	f.recoverFreeList()
	return f, nil
}

// trunk is one free-list trunk page as kept in memory: its own id and the
// free page ids it lists, popped from the end.
type trunk struct {
	id  PageID
	ids []PageID
}

// trunkStack is a free list, head trunk last; each trunk's next pointer is
// the trunk below it.
type trunkStack []trunk

// head returns the head trunk's id, InvalidPage for an empty list.
func (s trunkStack) head() PageID {
	if len(s) == 0 {
		return InvalidPage
	}
	return s[len(s)-1].id
}

// render writes the image of trunk i into buf.
func (s trunkStack) render(i int, buf []byte) {
	next := InvalidPage
	if i > 0 {
		next = s[i-1].id
	}
	clear(buf[:PageSize])
	copy(buf, trunkMagic)
	binary.BigEndian.PutUint32(buf[len(trunkMagic):], uint32(next))
	binary.BigEndian.PutUint32(buf[len(trunkMagic)+4:], uint32(len(s[i].ids)))
	for j, id := range s[i].ids {
		binary.BigEndian.PutUint32(buf[trunkHeader+4*j:], uint32(id))
	}
}

// parseTrunk decodes a trunk image. The count is checked against the
// trunk's capacity before anything is sized by it.
func parseTrunk(buf []byte) (next PageID, ids []PageID, ok bool) {
	if string(buf[:len(trunkMagic)]) != trunkMagic {
		return InvalidPage, nil, false
	}
	next = PageID(binary.BigEndian.Uint32(buf[len(trunkMagic):]))
	count := binary.BigEndian.Uint32(buf[len(trunkMagic)+4:])
	if count > uint32(trunkCapacity) {
		return InvalidPage, nil, false
	}
	ids = make([]PageID, count)
	for j := range ids {
		ids[j] = PageID(binary.BigEndian.Uint32(buf[trunkHeader+4*j:]))
	}
	return next, ids, true
}

// buildTrunks lays out a free list that Allocate drains in exactly the
// given order: each run of trunkCapacity+1 ids becomes one trunk, whose
// last id is the trunk page itself (handed out once its list is empty),
// and the first run is the head.
func buildTrunks(order []PageID) trunkStack {
	const run = trunkCapacity + 1
	if len(order) == 0 {
		return nil
	}
	var s trunkStack
	for start := (len(order) - 1) / run * run; start >= 0; start -= run {
		g := order[start:min(start+run, len(order))]
		ids := slices.Clone(g[:len(g)-1])
		slices.Reverse(ids)
		s = append(s, trunk{id: g[len(g)-1], ids: ids})
	}
	return s
}

// recoverFreeList loads the recovered free list named by meta.FreeHead,
// validating it as it goes: every trunk image must carry the trunk marker
// and a count within capacity, and every id on the list — trunk pages and
// listed ids alike — must be in range, must not be the catalog root, and
// must appear once (which also rules out trunk cycles). Any anomaly
// abandons the whole list: it resets to empty (persisted at the next
// commit) and FreeListResets counts the reset. Abandoning leaks the listed
// pages, which is always safe; trusting a corrupt list could hand out a
// live page twice, which never is. Runs before the disk is
// shared, so the read helpers need no latch.
func (f *FileDisk) recoverFreeList() {
	head := f.meta.FreeHead
	if head == InvalidPage {
		return
	}
	seen := map[PageID]struct{}{}
	claim := func(id PageID) bool {
		if id < 0 || int(id) >= f.numPages || id == f.meta.CatalogRoot {
			return false
		}
		if _, dup := seen[id]; dup {
			return false
		}
		seen[id] = struct{}{}
		return true
	}
	buf := make([]byte, PageSize)
	visit := func(id PageID) bool {
		if !claim(id) {
			return false
		}
		var err error
		if off, inWAL := f.walIndex[id]; inWAL {
			err = f.readChecked(func() error { return f.readWALFrameLocked(id, off, buf) })
		} else {
			err = f.readChecked(func() error { return f.readFileSlotLocked(id, buf) })
		}
		return err == nil
	}
	if !visit(head) {
		f.resetFreeList()
		return
	}
	var s trunkStack
	for id := head; ; {
		next, ids, ok := parseTrunk(buf)
		if !ok {
			f.resetFreeList()
			return
		}
		for _, x := range ids {
			if !claim(x) {
				f.resetFreeList()
				return
			}
		}
		s = append(s, trunk{id: id, ids: ids})
		if next == InvalidPage {
			break
		}
		if id = next; !visit(id) {
			f.resetFreeList()
			return
		}
	}
	slices.Reverse(s)
	f.trunks, f.cleanTrunks, f.freeSet = s, len(s), seen
}

// resetFreeList abandons the free list after a validation failure.
func (f *FileDisk) resetFreeList() {
	f.trunks, f.cleanTrunks = nil, 0
	f.freeSet = map[PageID]struct{}{}
	f.meta.FreeHead = InvalidPage
	f.freeResets.Add(1)
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

// TakeRecoveredLog returns the payloads of the logical records recovery
// found after the last commit record, in commit order, and forgets them:
// the caller replays them over the recovered page state. The records
// themselves stay in the log until a commit record covers them.
func (f *FileDisk) TakeRecoveredLog() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.recovered
	f.recovered = nil
	return out
}

// LogSinceSync reports what the log holds past its last commit record: the
// logical commits a crash now would replay, and the bytes (those records
// plus uncommitted frames) appended since that record.
func (f *FileDisk) LogSinceSync() (commits int, bytes int64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.logical), f.walSize - f.physEnd
}

// Path returns the database file path ("" for an in-memory disk).
func (f *FileDisk) Path() string { return f.path }

// Allocate reserves one new page, preferring the free list: it pops the
// last id of the head trunk, or, when that trunk lists none, the trunk page
// itself. The pop is in memory only — no device read — and the new list
// rides the next commit; until then a crash restores the committed list,
// which still holds the popped page, and that is safe because the
// allocation it served was uncommitted too.
//
// The caller owns the popped page's stale image and must write a fresh
// one before the page can be read (Pool.Allocate installs a zeroed frame),
// exactly as for never-written tail pages. With the free list empty and
// every page id in use, Allocate returns InvalidPage.
func (f *FileDisk) Allocate() PageID {
	f.mu.Lock()
	n := len(f.trunks)
	if n == 0 {
		if f.numPages == math.MaxInt32 {
			f.mu.Unlock()
			return InvalidPage
		}
		first := PageID(f.numPages)
		f.numPages++
		f.mu.Unlock()
		return first
	}
	head := &f.trunks[n-1]
	var id PageID
	if k := len(head.ids); k > 0 {
		id = head.ids[k-1]
		head.ids = head.ids[:k-1]
	} else {
		id = head.id
		f.trunks = f.trunks[:n-1]
	}
	f.cleanTrunks = min(f.cleanTrunks, n-1)
	delete(f.freeSet, id)
	f.mu.Unlock()
	f.pagesReused.Add(1)
	return id
}

// Free pushes page id onto the free list: onto the head trunk's list, or,
// when that is full or the list is empty, as a new head trunk. Nothing is
// written until the next commit, which carries the changed trunk; a crash
// before it rolls the free back. A double free is rejected.
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
	if n := len(f.trunks); n > 0 && len(f.trunks[n-1].ids) < trunkCapacity {
		f.trunks[n-1].ids = append(f.trunks[n-1].ids, id)
		f.cleanTrunks = min(f.cleanTrunks, n-1)
	} else {
		f.trunks = append(f.trunks, trunk{id: id})
	}
	f.freeSet[id] = struct{}{}
	f.pagesFreed.Add(1)
	return nil
}

// FreeList returns the ids on the free list — trunk pages and the ids
// they list, committed plus uncommitted mutations — in no particular order.
func (f *FileDisk) FreeList() []PageID {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ids := make([]PageID, 0, len(f.freeSet))
	for id := range f.freeSet {
		ids = append(ids, id)
	}
	return ids
}

// walFramePool recycles frame-sized buffers for read-path WAL frame
// verification (one whole frame must be read to check its CRC) and for
// rendering trunk images.
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
// recovery. what and id name the record in an error (id InvalidPage: what
// alone); they are formatted only then.
func (f *FileDisk) appendLocked(rec []byte, what string, id PageID) error {
	fail := func(err error) error {
		if id != InvalidPage {
			what = fmt.Sprintf("%s %d", what, id)
		}
		return fmt.Errorf("storage: wal append (%s): %w", what, err)
	}
	out := rec
	if f.inj != nil {
		if err := f.inj.writeError(); err != nil {
			return fail(err)
		}
		if cut, ok := f.inj.tornCut(len(rec)); ok {
			out = rec[:cut]
		}
	}
	if _, err := f.wal.WriteAt(out, f.walSize); err != nil {
		return fail(err)
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
	f.frame = appendWALFrame(f.frame[:0], id, buf[:PageSize])
	if err := f.appendLocked(f.frame, "page", id); err != nil {
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
// Pass the sequence to SyncTo to wait for durability. The record covers
// every logical record appended before it: the caller's meta must describe
// a state that includes them. When nothing changed since the last commit
// record the call is a no-op and returns the current sequence (already
// durable or about to be). The disk owns meta.FreeHead: whatever the caller
// passes is replaced by the current head trunk, and a frame for every
// changed trunk precedes the commit record, so frees and reuses commit
// atomically with the page images.
func (f *FileDisk) CommitAsync(meta Meta) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitAsyncLocked(meta)
}

func (f *FileDisk) commitAsyncLocked(meta Meta) (int64, error) {
	if err := f.poisonedError(); err != nil {
		return 0, err
	}
	meta.FreeHead = f.trunks.head()
	if len(f.pending) == 0 && len(f.logical) == 0 && f.cleanTrunks == len(f.trunks) && meta == f.meta {
		return f.commitSeq, nil
	}
	if f.cleanTrunks < len(f.trunks) {
		buf := walFramePool.Get().(*[]byte)
		img := (*buf)[:PageSize]
		for i := f.cleanTrunks; i < len(f.trunks); i++ {
			id := f.trunks[i].id
			f.trunks.render(i, img)
			start := f.walSize
			f.frame = appendWALFrame(f.frame[:0], id, img)
			if err := f.appendLocked(f.frame, "free-list trunk", id); err != nil {
				walFramePool.Put(buf)
				return 0, err
			}
			f.pending[id] = start + walFrameHeaderSize
		}
		walFramePool.Put(buf)
	}
	rec := appendWALCommit(make([]byte, 0, walCommitSize), f.commitSeq+1, f.floor, meta)
	if err := f.appendLocked(rec, "commit", InvalidPage); err != nil {
		return 0, err
	}
	for id, off := range f.pending {
		f.walIndex[id] = off
	}
	f.pending = map[PageID]int64{}
	f.cleanTrunks = len(f.trunks)
	f.meta = meta
	f.commitSeq++
	f.physEnd = f.walSize
	f.logical = nil
	return f.commitSeq, nil
}

// CommitLogical appends a logical record carrying payload — one commit as
// the caller encodes it — without forcing it to disk, and returns its
// sequence number for SyncTo, exactly as CommitAsync does. It commits no
// frame and changes no metadata: the page state stays that of the last
// commit record, and recovery hands the payload back (TakeRecoveredLog)
// until a commit record covers it.
func (f *FileDisk) CommitLogical(payload []byte) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return 0, err
	}
	start := f.walSize
	f.frame = appendWALLogical(f.frame[:0], f.commitSeq+1, payload)
	if err := f.appendLocked(f.frame, "logical commit", InvalidPage); err != nil {
		return 0, err
	}
	f.logical = append(f.logical, walSpan{start, f.walSize - start})
	f.commitSeq++
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
// committed boundary (immutable until the serialized log replacement), and the
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
// replaces the WAL with its suffix past the last commit record. A crash at
// any point is safe because the WAL is only replaced after the database
// file is durable, the replacement is atomic (replaceWALLocked), and
// replaying either log is idempotent.
//
// The migration is incremental: while the un-migrated committed delta is
// large, frames are copied in bounded batches under a shared latch snapshot
// only — writers keep appending and committing concurrently, and pages they
// re-dirty are simply re-copied in a later round (their WAL index entry
// moved, so the delta scan picks them up again). Readers never see a
// half-written slot because any page with a WAL index entry is read from
// the WAL, and entries only disappear here. Once the delta is small the
// checkpoint finishes under the exclusive latch: the remainder is migrated,
// the superblock written, the file fsynced, and the WAL replaced by the
// frames of a still-open transaction plus the logical records no commit
// record covers yet, so the checkpoint needs no commit boundary. That
// bounded finalize is the only moment writers wait.
//
// A failed fsync — of the database file or of the replaced WAL — poisons
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
	// Bounded finalize under the exclusive latch — and the sync latch, as
	// the log file may be replaced under a group-commit fsync.
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
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
	// The database file now holds the state of the last commit record, so
	// the log shrinks to what follows it: the open transaction's frames
	// (which recovery discards without a commit record, exactly as
	// uncommitted frames should be) and the logical records no commit
	// record covers yet (which recovery must still replay).
	img, pending, logical, err := f.logSuffixLocked()
	if err != nil {
		f.poison(err)
		return f.poisonedError()
	}
	if err := f.replaceWALLocked(img); err != nil {
		return err
	}
	f.walSize = int64(len(img))
	f.physEnd, f.floor = 0, 0
	f.walIndex = map[PageID]int64{}
	f.pending, f.logical = pending, logical
	f.statLock.Lock()
	f.bytesWritten.Add(int64(len(img)))
	f.walFsyncs.Add(1)
	f.checkpoints.Add(1)
	f.statLock.Unlock()
	if f.ckptHist != nil {
		f.ckptHist.Observe(time.Since(ckptStart).Nanoseconds())
	}
	f.ckptStage(CkptWALTruncated)
	// Every committed state now lives durably in the database file or the
	// replaced log, so any SyncTo waiter still queued is satisfied.
	storeMax(&f.durableSeq, f.commitSeq)
	return nil
}

// logSuffixLocked reads the log's suffix past its last commit record — the
// pending frames, oldest first, then the logical records in order — into
// one image, and returns it with the frames' and records' places in it.
func (f *FileDisk) logSuffixLocked() (img []byte, pending map[PageID]int64, logical []walSpan, err error) {
	type frameAt struct {
		id  PageID
		off int64
	}
	frames := make([]frameAt, 0, len(f.pending))
	for id, off := range f.pending {
		frames = append(frames, frameAt{id, off})
	}
	slices.SortFunc(frames, func(a, b frameAt) int { return cmp.Compare(a.off, b.off) })
	size := int64(len(frames)) * walFrameSize
	for _, sp := range f.logical {
		size += sp.n
	}
	img = make([]byte, size)
	pending = make(map[PageID]int64, len(frames))
	at := int64(0)
	for _, fr := range frames {
		if _, err := f.wal.ReadAt(img[at:at+walFrameSize], fr.off-walFrameHeaderSize); err != nil {
			return nil, nil, nil, fmt.Errorf("wal reread of pending page %d: %w", fr.id, err)
		}
		pending[fr.id] = at + walFrameHeaderSize
		at += walFrameSize
	}
	for _, sp := range f.logical {
		if _, err := f.wal.ReadAt(img[at:at+sp.n], sp.off); err != nil {
			return nil, nil, nil, fmt.Errorf("wal reread of a logical record at %d: %w", sp.off, err)
		}
		logical = append(logical, walSpan{at, sp.n})
		at += sp.n
	}
	return img, pending, logical, nil
}

// replaceWALLocked makes img the whole log, durably. On disk it never
// truncates the live log: img is written to a sibling file, fsynced and
// renamed over the log (then the directory is fsynced), so a crash at any
// moment leaves either the old log or the new one, each of which recovers
// to the same state. An in-memory log, which no crash outlives, is
// rewritten in place. A failure before the rename leaves the old log in
// place and the disk healthy; one after it poisons the disk.
func (f *FileDisk) replaceWALLocked(img []byte) error {
	if f.path == "" {
		if err := f.wal.Truncate(0); err != nil {
			f.poison(fmt.Errorf("wal truncate: %w", err))
			return f.poisonedError()
		}
		if _, err := f.wal.WriteAt(img, 0); err != nil {
			f.poison(fmt.Errorf("wal rewrite: %w", err))
			return f.poisonedError()
		}
		return nil
	}
	walPath := f.path + WALSuffix
	next, err := os.OpenFile(walPath+".next", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: checkpoint log: %w", err)
	}
	if _, err := next.WriteAt(img, 0); err == nil {
		err = next.Sync()
	}
	if err == nil {
		err = os.Rename(next.Name(), walPath)
	}
	if err != nil {
		next.Close()
		os.Remove(next.Name())
		return fmt.Errorf("storage: checkpoint log: %w", err)
	}
	f.wal.Close()
	f.wal = osFile{next}
	if err := syncDir(filepath.Dir(walPath)); err != nil {
		f.poison(fmt.Errorf("wal rename fsync: %w", err))
		return f.poisonedError()
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Compact trims the maximal all-free suffix of the page array off the file:
// the free list is rebuilt as trunks over the surviving free pages (drained
// ascending, so repeated compactions converge), the shrunken page count and
// new trunks are committed and fsynced through the WAL, and only then is
// the physical file truncated — a crash in between leaves harmless extra
// bytes past the logical end, never a lost page. Returns the number of
// pages trimmed.
//
// Compact skips (returning 0) while a transaction has uncommitted frames or
// free-list changes: the splice needs a commit record, and committing would
// prematurely seal someone else's open transaction.
func (f *FileDisk) Compact() (int, error) {
	f.ckptMu.Lock()
	defer f.ckptMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return 0, err
	}
	if len(f.pending) > 0 || f.cleanTrunks < len(f.trunks) {
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
	slices.Sort(survivors)
	f.trunks, f.cleanTrunks = buildTrunks(survivors), 0
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
	if size, err := f.file.Size(); err == nil && size > target {
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
	commits, _ := f.LogSinceSync()
	st.CommitsSinceSync = int64(commits)
	if size, err := f.file.Size(); err == nil {
		st.FileBytes = size
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
func writeSuperblock(file File, m Meta) error {
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

// readSuperblock validates and decodes the superblock: a short read, a bad
// magic, a checksum mismatch or an impossible Meta wraps ErrCorruptPage;
// another format version or page size wraps ErrFormatVersion.
func readSuperblock(file File) (Meta, error) {
	buf := make([]byte, superblockUsed)
	if _, err := file.ReadAt(buf, 0); err == io.EOF {
		return Meta{}, fmt.Errorf("storage: short superblock: %w", ErrCorruptPage)
	} else if err != nil {
		return Meta{}, fmt.Errorf("storage: superblock read: %w", err)
	}
	if string(buf[:8]) != fileFormatMagic {
		return Meta{}, fmt.Errorf("storage: not a twigdb database (bad magic): %w", ErrCorruptPage)
	}
	if crc32.ChecksumIEEE(buf[:superblockUsed-4]) != binary.BigEndian.Uint32(buf[superblockUsed-4:]) {
		return Meta{}, fmt.Errorf("storage: superblock checksum mismatch: %w", ErrCorruptPage)
	}
	if v := binary.BigEndian.Uint32(buf[8:]); v != fileFormatVer {
		return Meta{}, fmt.Errorf("%w %d (this build reads version %d only)", ErrFormatVersion, v, fileFormatVer)
	}
	if ps := binary.BigEndian.Uint32(buf[12:]); ps != PageSize {
		return Meta{}, fmt.Errorf("%w: page size %d (this build uses %d)", ErrFormatVersion, ps, PageSize)
	}
	m := Meta{
		NumPages:    int32(binary.BigEndian.Uint32(buf[16:])),
		CatalogRoot: PageID(binary.BigEndian.Uint32(buf[20:])),
		FreeHead:    PageID(binary.BigEndian.Uint32(buf[24:])),
	}
	if !m.valid() {
		return Meta{}, fmt.Errorf("storage: superblock %+v: %w", m, ErrCorruptPage)
	}
	return m, nil
}
