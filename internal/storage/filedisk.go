package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// File format (see docs/STORAGE.md for the full specification):
//
//   - the database is a single file (a File: on disk or in memory): a 4KB
//     header holding two superblock slots, followed by page slots of
//     pageSlotSize bytes at offset superblockSize + id*pageSlotSize;
//     each slot is the 8KB page image followed by a CRC32-IEEE trailer,
//     verified on every read so a flipped bit surfaces as ErrCorruptPage
//     instead of garbage keys;
//   - the write-ahead log lives beside it at path+".wal" and holds logical
//     records only (see wal.go): a commit appends its caller-encoded record
//     and fsyncs the log;
//   - pages are written straight to their slots — evicted or flushed —
//     under one invariant: no slot reachable from the newer superblock (a
//     tree page of the sealed state, its catalog chain or its free-list
//     trunks) is written before the next superblock is durable. Pages are
//     copied on write, so only reuse could break it: a page freed since the
//     last seal that the sealed state reaches is held back from reuse until
//     the next one (see Seal).
//
// Superblock layout, one per slot at offsets 0 and superblockSlot
// (big-endian, CRC32-IEEE over the preceding bytes):
//
//	offset  size  field
//	0       8     magic "TWIGDBF1"
//	8       4     format version (5; any other is refused)
//	12      4     page size (8192)
//	16      8     commit sequence sealed
//	24      4     numPages
//	28      4     catalog root page id
//	32      4     free-list head trunk page id (InvalidPage = empty list)
//	36      4     crc32
//
// Open takes the valid slot with the higher sequence; a seal writes the
// other one.
//
// The free list is a chain of trunk pages. A trunk is itself a free page
// whose image is
//
//	"TWIGTRNK" | next trunk u32 | count u32 | count × free page id u32
//
// (big-endian, at most trunkCapacity ids, InvalidPage ends the chain). The
// trunks are read and validated once at open and then kept in memory: Free
// and Allocate push and pop ids there without device I/O, and each seal
// writes the whole list afresh onto pages the sealed state does not reach.
const (
	superblockSize  = 4096
	superblockSlot  = superblockSize / 2 // offset of the second slot
	fileFormatMagic = "TWIGDBF1"
	fileFormatVer   = 5
	superblockUsed  = 40 // bytes of a slot covered by the layout above, incl. crc

	pageTrailerSize = 4 // CRC32-IEEE of the page image
	pageSlotSize    = PageSize + pageTrailerSize

	trunkMagic    = "TWIGTRNK" // first 8 bytes of every trunk image
	trunkHeader   = len(trunkMagic) + 4 + 4
	trunkCapacity = (PageSize - trunkHeader) / 4 // 2,044 ids per trunk

	// A seal is due once the pages held back from reuse pass
	// 1/heldShare of the sealed page count plus heldSlack: they are what
	// the file grows by between seals. A writer appending to one document
	// holds about a quarter by the 1,024th commit, when the commit count
	// brings on a seal anyway (the benchmark's commit-durable writer: 713
	// of 2,904 sealed pages; mixed-txn's: 638 of 2,735), so this bound
	// changes nothing there and stops writers that spread over more
	// distinct pages sooner. heldSlack keeps a small file, where one
	// commit's copied paths are a large share, from sealing every few
	// commits.
	heldShare = 4
	heldSlack = 256
)

// WALSuffix is appended to the database path to name the write-ahead log.
const WALSuffix = ".wal"

// slotOff returns the file offset of page id's slot.
func slotOff(id PageID) int64 {
	return superblockSize + int64(id)*pageSlotSize
}

// poisonCause boxes the first fsync error so it can sit in an
// atomic.Pointer.
type poisonCause struct{ err error }

// FileDisk is the page device beneath the buffer pool: a single paged
// database file plus a write-ahead log of logical records, both Files — on
// disk for a durable database, in memory otherwise. Write puts a page in
// its slot; CommitLogical appends a caller-encoded commit to the log and
// SyncTo makes it durable; Seal — the storage half of a sync point — makes
// the written pages the durable state under a new superblock and empties
// the log. OpenFileDisk recovers the state of the newer valid superblock
// and hands the logical commits logged after it back through
// TakeRecoveredLog.
//
// Integrity: every page slot carries a CRC trailer and every log record a
// CRC suffix, both verified on the read path (pages with one transparent
// retry, since a transient fault may not recur); failures surface as
// ErrCorruptPage. A failed fsync poisons the disk (fsyncgate semantics:
// the page cache can no longer be trusted), rejecting every subsequent
// write, commit and seal with ErrPoisoned while reads keep working.
//
// Reads of distinct pages proceed in parallel (shared latch); writes,
// commits and seals are exclusive. OpenFileDisk takes an exclusive
// advisory lock on the database file (ErrLocked on a second open), which
// Close releases.
type FileDisk struct {
	mu   sync.RWMutex
	file File
	wal  File

	numPages int
	meta     Meta  // the sealed state: the newer superblock
	sealed   int64 // the newer superblock's commit sequence
	sbSlot   int   // the slot meta was read from or last written to
	walSize  int64
	// logged counts the logical records in the log: the commits a crash
	// now would replay. The next seal covers them all.
	logged int
	// recovered holds the payloads of the logical records recovery found
	// past the superblock's sequence, until TakeRecoveredLog hands them out.
	recovered [][]byte
	// changed reports whether anything — a page, the free list, the log —
	// changed since the last seal; a seal without a change writes nothing.
	changed bool

	// free is the stack of page ids reusable now (Allocate pops the end);
	// freeSet holds every free id, mapped to whether it is in free (true)
	// or held back until the next seal (false: freed since the last seal
	// while the sealed state reaches it, or one of the sealed trunks).
	// fresh holds allocated ids below the sealed page count that the
	// sealed state does not reach — taken from free since the last seal, or
	// retired at it — so freeing one makes it reusable at once, as does
	// freeing a page past the sealed page count.
	free    []PageID
	freeSet map[PageID]bool
	held    int
	fresh   map[PageID]struct{}

	// slot and rec are the scratch every page slot and log record is
	// encoded into (guarded by mu, written out before mu is released;
	// allocated on first use, so a disk that is only read holds neither).
	slot []byte
	rec  []byte

	// commitSeq numbers logical records and seals as they are appended
	// (guarded by mu), continuing from the last record recovery kept;
	// durableSeq is the highest commit sequence known to be durable —
	// advanced by SyncTo's fsyncs and by Seal. The gap between them is the
	// group-commit window: commits whose records are appended but whose
	// callers are still waiting in SyncTo for a shared fsync.
	commitSeq  int64
	durableSeq atomic.Int64

	// syncMu serialises group-commit fsyncs: the holder is the batch
	// leader, syncing the log for itself and for every commit appended
	// before it started; waiters that acquire it afterwards usually find
	// their commit already durable and return without an fsync of their own.
	// Lock order: syncMu before mu.
	syncMu sync.Mutex

	// poisoned holds the first fsync failure; once set the disk rejects
	// writes forever (the kernel may have dropped dirty cache pages, so
	// nothing since the last durable boundary can be trusted to persist).
	poisoned atomic.Pointer[poisonCause]

	// inj, when set, injects faults at the media level: bit flips on raw
	// reads (below the CRC check), torn/failed page writes and log appends,
	// fsync errors. Set once via SetFaultInjector before the disk is shared.
	inj *FaultInjector

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
	ckptHist  *obs.Histogram // per seal, ns

	// Recovery facts from OpenFileDisk (set before the disk is shared).
	recoveredCommits int64
	walDiscarded     int64
}

// OpenFileDisk opens (creating if absent) the database file at path and its
// WAL at path+".wal", takes an exclusive lock on the database file (a file
// another FileDisk holds open fails with ErrLocked) and recovers it (see
// OpenFiles).
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
	return OpenFiles(osFile{file}, osFile{wal})
}

// NewMemFileDisk returns an empty FileDisk over two in-memory files — the
// device of a database opened without a path. It runs the same page, WAL,
// checksum, free-list and seal code as a FileDisk on disk; fsyncs are
// no-ops, and nothing outlives the process.
func NewMemFileDisk() *FileDisk {
	f, err := OpenFiles(&memFile{}, &memFile{})
	if err != nil {
		panic(err) // writing and scanning empty in-memory files cannot fail
	}
	return f
}

// OpenFiles opens a FileDisk over a database file and its log. An empty
// file is stamped with an empty superblock; otherwise the newer valid
// superblock becomes the state, its free list is loaded, the log records
// numbered past its sequence are kept for TakeRecoveredLog, and any torn
// tail of the log is truncated away.
func OpenFiles(file, wal File) (_ *FileDisk, err error) {
	f := &FileDisk{
		file:    file,
		wal:     wal,
		meta:    Meta{CatalogRoot: InvalidPage, FreeHead: InvalidPage},
		freeSet: map[PageID]bool{},
		fresh:   map[PageID]struct{}{},
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	size, err := file.Size()
	if err != nil {
		return nil, err
	}
	if size > 0 {
		f.meta, f.sealed, f.sbSlot, err = readSuperblock(file)
	} else if err = writeSuperblock(file, 0, 0, f.meta); err == nil {
		// A fresh file is stamped with an empty superblock immediately,
		// so it is self-describing from its first byte onward.
		err = file.Sync()
	}
	if err != nil {
		return nil, err
	}
	walSize, err := wal.Size()
	if err != nil {
		return nil, err
	}
	end, seq, payloads, err := scanWAL(wal, f.sealed)
	if err != nil {
		return nil, err
	}
	// Discard the torn tail so later appends start at a record boundary.
	if err := wal.Truncate(end); err != nil {
		return nil, fmt.Errorf("storage: truncating torn wal tail: %w", err)
	}
	f.walSize, f.recovered = end, payloads
	f.logged = len(payloads)
	f.changed = f.logged > 0
	f.commitSeq = seq
	f.durableSeq.Store(seq)
	f.numPages = int(f.meta.NumPages)
	f.recoveredCommits = int64(f.logged)
	f.walDiscarded = walSize - end
	f.recoverFreeList()
	return f, nil
}

// renderTrunk writes the image of a trunk listing ids and chaining to next
// into buf.
func renderTrunk(buf []byte, next PageID, ids []PageID) {
	clear(buf[:PageSize])
	copy(buf, trunkMagic)
	binary.BigEndian.PutUint32(buf[len(trunkMagic):], uint32(next))
	binary.BigEndian.PutUint32(buf[len(trunkMagic)+4:], uint32(len(ids)))
	for j, id := range ids {
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

// layFreeList writes a free list naming ids onto the trunk pages, in
// order: the first trunk is the head and lists the first trunkCapacity
// ids, so a recovery that concatenates the trunks' lists gets ids back as
// given (Allocate pops from the end). buf is a page-sized scratch. It
// returns the head, InvalidPage when there is no trunk.
func layFreeList(ids, trunks []PageID, buf []byte, write func(PageID, []byte) error) (PageID, error) {
	for i, id := range trunks {
		next := InvalidPage
		if i+1 < len(trunks) {
			next = trunks[i+1]
		}
		lo := min(i*trunkCapacity, len(ids))
		renderTrunk(buf, next, ids[lo:min(lo+trunkCapacity, len(ids))])
		if err := write(id, buf[:PageSize]); err != nil {
			return InvalidPage, err
		}
	}
	if len(trunks) == 0 {
		return InvalidPage, nil
	}
	return trunks[0], nil
}

// trunksFor returns how many trunks a free list of n pages needs when the
// trunk pages are drawn from those n.
func trunksFor(n int) int { return (n + trunkCapacity) / (trunkCapacity + 1) }

// recoverFreeList loads the recovered free list named by meta.FreeHead,
// validating it as it goes: every trunk image must carry the trunk marker
// and a count within capacity, and every id on the list — trunk pages and
// listed ids alike — must be in range, must not be the catalog root, and
// must appear once (which also rules out trunk cycles). Any anomaly
// abandons the whole list: it resets to empty (persisted at the next
// seal) and FreeListResets counts the reset. Abandoning leaks the listed
// pages, which is always safe; trusting a corrupt list could hand out a
// live page twice, which never is. The listed ids become reusable; the
// trunk pages the sealed state reaches stay held until the next seal.
// Runs before the disk is shared, so the read helpers need no latch.
func (f *FileDisk) recoverFreeList() {
	head := f.meta.FreeHead
	if head == InvalidPage {
		return
	}
	seen := map[PageID]bool{}
	claim := func(id PageID, reusable bool) bool {
		if id < 0 || int(id) >= f.numPages || id == f.meta.CatalogRoot {
			return false
		}
		if _, dup := seen[id]; dup {
			return false
		}
		seen[id] = reusable
		return true
	}
	buf := make([]byte, PageSize)
	var free []PageID
	held := 0
	for id := head; id != InvalidPage; held++ {
		if !claim(id, false) || f.readChecked(func() error { return f.readFileSlotLocked(id, buf) }) != nil {
			f.resetFreeList()
			return
		}
		next, ids, ok := parseTrunk(buf)
		if !ok {
			f.resetFreeList()
			return
		}
		for _, x := range ids {
			if !claim(x, true) {
				f.resetFreeList()
				return
			}
		}
		free = append(free, ids...)
		id = next
	}
	f.free, f.freeSet, f.held = free, seen, held
}

// resetFreeList abandons the free list after a validation failure.
func (f *FileDisk) resetFreeList() {
	f.free, f.held = nil, 0
	f.freeSet = map[PageID]bool{}
	f.meta.FreeHead = InvalidPage
	f.changed = true
	f.freeResets.Add(1)
}

// SetFaultInjector attaches a fault injector at the media level: bit flips
// land on the raw bytes read from the file (below the CRC check, so they
// are detected), torn writes persist only a prefix of a page slot or a log
// record, fsync faults poison the disk. Must be called before the disk is
// shared across goroutines; engine.Open calls it when Config.Faults is set.
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

// Meta returns the sealed metadata (after OpenFileDisk: the recovered
// superblock's).
func (f *FileDisk) Meta() Meta {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.meta
}

// WALSize returns the current WAL length in bytes. Immediately after a
// commit it is the offset of the commit boundary — the crash-recovery
// torture tests use it to mark durable states.
func (f *FileDisk) WALSize() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.walSize
}

// TakeRecoveredLog returns the payloads of the logical records recovery
// found past the superblock's sequence, in commit order, and forgets them:
// the caller replays them over the sealed state. The records themselves
// stay in the log until the next seal covers them.
func (f *FileDisk) TakeRecoveredLog() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.recovered
	f.recovered = nil
	return out
}

// LogSinceSync reports what the log holds past the last seal: the logical
// commits a crash now would replay, and the log's length in bytes.
func (f *FileDisk) LogSinceSync() (commits int, bytes int64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.logged, f.walSize
}

// SealDue reports whether the pages held back from reuse since the last
// seal — what the file grows by until the next one — have passed a
// quarter of the sealed page count (plus a fixed slack of 2 MB), so the
// next commit should be a sync point.
func (f *FileDisk) SealDue() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.held > int(f.meta.NumPages)/heldShare+heldSlack
}

// Allocate reserves one new page, preferring the free list: it pops the
// most recently pushed reusable id. The pop is in memory only — no device
// read — and the new list is written at the next seal; until then a crash
// restores the sealed list, which still holds the popped page, and that is
// safe because the allocation it served was not sealed either.
//
// The caller owns the popped page's stale image and must write a fresh
// one before the page can be read (Pool.Allocate installs a zeroed frame),
// exactly as for never-written tail pages. With the free list empty and
// every page id in use, Allocate returns InvalidPage.
func (f *FileDisk) Allocate() PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.changed = true
	n := len(f.free)
	if n == 0 {
		if f.numPages == math.MaxInt32 {
			return InvalidPage
		}
		f.numPages++
		return PageID(f.numPages - 1)
	}
	id := f.free[n-1]
	f.free = f.free[:n-1]
	delete(f.freeSet, id)
	f.fresh[id] = struct{}{}
	f.pagesReused.Add(1)
	return id
}

// Free puts page id on the free list: reusable at once when the sealed
// state does not reach it (it was allocated since the last seal, or lies
// past the sealed page count), held back until the next seal otherwise.
// Nothing is written until that seal; a crash before it rolls the free
// back. A double free is rejected.
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
	_, fresh := f.fresh[id]
	if reusable := fresh || int32(id) >= f.meta.NumPages; reusable {
		delete(f.fresh, id)
		f.free = append(f.free, id)
		f.freeSet[id] = true
	} else {
		f.freeSet[id] = false
		f.held++
	}
	f.changed = true
	f.pagesFreed.Add(1)
	return nil
}

// FreeList returns the ids on the free list — reusable and held alike, the
// sealed trunks included — in no particular order.
func (f *FileDisk) FreeList() []PageID {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ids := make([]PageID, 0, len(f.freeSet))
	for id := range f.freeSet {
		ids = append(ids, id)
	}
	return ids
}

// Read copies page id into buf from its slot; pages allocated but never
// written read as zeroes. The slot is CRC-verified; a mismatch is retried
// once (a transient fault may not recur) and then reported as
// ErrCorruptPage.
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

// readFileSlotLocked reads page id's slot from the database file into buf
// and verifies the CRC trailer. A slot wholly beyond the file end, or an
// all-zero slot inside it, is a page that was allocated but never written
// and reads as zeroes.
func (f *FileDisk) readFileSlotLocked(id PageID, buf []byte) error {
	off := slotOff(id)
	n, err := f.file.ReadAt(buf[:PageSize], off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read of page %d: %w", id, err)
	}
	if n == 0 {
		clear(buf[:PageSize])
		return nil
	}
	clear(buf[n:PageSize])
	var tr [pageTrailerSize]byte
	tn, err := f.file.ReadAt(tr[:], off+PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read of page %d trailer: %w", id, err)
	}
	clear(tr[tn:])
	if f.inj != nil {
		f.inj.bitFlip(buf[:PageSize])
	}
	stored := binary.BigEndian.Uint32(tr[:])
	if crc32.ChecksumIEEE(buf[:PageSize]) == stored {
		return nil
	}
	if stored == 0 && allZero(buf[:PageSize]) {
		return nil // hole inside the file: allocated, never written
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

// writeAt writes out at off in dst, applying injected write faults: an
// injected error fails the write cleanly, while a torn write persists only
// a prefix yet reports success — the process believes the write worked,
// and the corruption surfaces later as a CRC failure on the read path or a
// discarded commit during recovery. what and id name the target in an
// error (id InvalidPage: what alone); they are formatted only then.
func (f *FileDisk) writeAt(dst File, out []byte, off int64, what string, id PageID) error {
	fail := func(err error) error {
		if id != InvalidPage {
			what = fmt.Sprintf("%s %d", what, id)
		}
		return fmt.Errorf("storage: write of %s: %w", what, err)
	}
	if f.inj != nil {
		if err := f.inj.writeError(); err != nil {
			return fail(err)
		}
		if cut, ok := f.inj.tornCut(len(out)); ok {
			out = out[:cut]
		}
	}
	if _, err := dst.WriteAt(out, off); err != nil {
		return fail(err)
	}
	return nil
}

// writeSlotLocked writes one page image with a fresh CRC trailer into its
// slot.
func (f *FileDisk) writeSlotLocked(id PageID, data []byte) error {
	if f.slot == nil {
		f.slot = make([]byte, pageSlotSize)
	}
	copy(f.slot, data[:PageSize])
	binary.BigEndian.PutUint32(f.slot[PageSize:], crc32.ChecksumIEEE(data[:PageSize]))
	if err := f.writeAt(f.file, f.slot, slotOff(id), "page", id); err != nil {
		return err
	}
	f.statLock.Lock()
	f.writes.Add(1)
	f.bytesWritten.Add(pageSlotSize)
	f.statLock.Unlock()
	return nil
}

// Write puts buf into page id's slot. The page must be allocated and not
// free; the caller never writes a page the sealed state reaches (pages are
// copied on write, and a freed one is held back until the next seal), so
// the write is volatile until that seal.
func (f *FileDisk) Write(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return err
	}
	if int(id) < 0 || int(id) >= f.numPages {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	if _, free := f.freeSet[id]; free {
		return fmt.Errorf("storage: write of free page %d", id)
	}
	if err := f.writeSlotLocked(id, buf); err != nil {
		return err
	}
	f.changed = true
	return nil
}

// CommitLogical appends a logical record carrying payload — one commit as
// the caller encodes it — without forcing it to disk, and returns its
// sequence number: pass it to SyncTo to wait for durability. It writes no
// page: recovery hands the payload back (TakeRecoveredLog) until a seal
// covers it.
func (f *FileDisk) CommitLogical(payload []byte) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return 0, err
	}
	f.rec = appendWALLogical(f.rec[:0], f.commitSeq+1, payload)
	if err := f.writeAt(f.wal, f.rec, f.walSize, "logical commit", InvalidPage); err != nil {
		return 0, err
	}
	f.walSize += int64(len(f.rec))
	f.statLock.Lock()
	f.walAppends.Add(1)
	f.bytesWritten.Add(int64(len(f.rec)))
	f.statLock.Unlock()
	f.logged++
	f.changed = true
	f.commitSeq++
	return f.commitSeq, nil
}

// SyncTo blocks until the commit with the given sequence number is durable,
// coalescing concurrent callers into one fsync (group commit): the first
// caller to acquire the sync latch becomes the batch leader and fsyncs the
// log once for every commit appended before it started; later callers find
// their sequence already covered and return without an fsync of their own.
// A seal also satisfies waiters (it makes every commit durable through the
// database file).
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
		return nil // a leader's batch (or a seal) covered us
	}
	if err := f.poisonedError(); err != nil {
		return err // the previous batch leader poisoned the disk
	}
	f.mu.RLock()
	target := f.commitSeq
	f.mu.RUnlock()
	fsyncStart := time.Now()
	if err := f.sync(f.wal, "wal"); err != nil {
		return err
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

// sync fsyncs one of the disk's files, poisoning the disk on failure.
func (f *FileDisk) sync(file File, what string) error {
	var err error
	if f.inj != nil {
		err = f.inj.fsyncError()
	}
	if err == nil {
		err = file.Sync()
	}
	if err != nil {
		f.poison(fmt.Errorf("%s fsync: %w", what, err))
		return f.poisonedError()
	}
	return nil
}

// storeMax advances v to at least target (never backwards: a slow fsync
// leader must not undo the progress a seal published meanwhile).
func storeMax(v *atomic.Int64, target int64) {
	for {
		cur := v.Load()
		if cur >= target || v.CompareAndSwap(cur, target) {
			return
		}
	}
}

// Seal is the storage half of a sync point. The caller has written every
// page of the state to seal — its dirty pages and its catalog chain, whose
// head is catalogRoot — each to a slot the current superblock does not
// reach. retired names pages the caller still holds for readers of older
// versions although the sealed state no longer reaches them: the sealed
// free list names them, so a crash frees them, but they stay allocated
// here until the caller frees them.
//
// Seal then writes the new free list — every free page, the held ones and
// the current trunks included, minus the all-free tail of the page array,
// which it trims — onto trunk pages drawn from the pages reusable now,
// fsyncs the file, writes a superblock stamped with the next commit
// sequence into the other slot and fsyncs again. Only then, with the new
// state durable, does it make the held pages reusable, shorten the file
// and empty the log: every commit the log held is in the file now, and a
// crash before the log truncation is harmless because recovery skips the
// records the superblock's sequence covers. A write error before the
// superblock is durable leaves the disk as it was (the pages written so
// far are ones no superblock reaches); a failed fsync poisons it. A seal
// with nothing changed since the last one writes nothing.
func (f *FileDisk) Seal(catalogRoot PageID, retired []PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.poisonedError(); err != nil {
		return err
	}
	if !f.changed && catalogRoot == f.meta.CatalogRoot {
		return nil
	}
	start := time.Now()
	end := f.numPages
	for end > 0 {
		if _, free := f.freeSet[PageID(end-1)]; !free {
			break
		}
		end--
	}
	// The trunks come from the reusable pages, lowest first; the list names
	// the rest, highest first, so Allocate hands out low ids first and the
	// tail keeps freeing up for the next trim.
	var ids, spare []PageID
	collect := func(end int) {
		ids, spare = slices.Clone(retired), spare[:0]
		for id, reusable := range f.freeSet {
			switch {
			case int(id) >= end:
			case reusable:
				spare = append(spare, id)
			default:
				ids = append(ids, id)
			}
		}
		slices.Sort(spare)
	}
	collect(end)
	k := trunksFor(len(ids) + len(spare))
	if k > len(spare) && end < f.numPages {
		// Too few reusable pages below the trimmed end to carry the list:
		// keep the tail, whose reusable pages may.
		end = f.numPages
		collect(end)
		k = trunksFor(len(ids) + len(spare))
	}
	var trunks []PageID
	if k <= len(spare) {
		trunks, ids = spare[:k], append(ids, spare[k:]...)
	} else {
		// Most of what is free is held: the trunks go past the end.
		ids = append(ids, spare...)
		for i := 0; i < (len(ids)+trunkCapacity-1)/trunkCapacity; i++ {
			trunks = append(trunks, PageID(end))
			end++
		}
	}
	slices.Sort(ids)
	slices.Reverse(ids)
	img := getPageBuf()
	defer putPageBuf(img)
	head, err := layFreeList(ids, trunks, img, f.writeSlotLocked)
	if err != nil {
		return err
	}
	if err := f.sync(f.file, "database"); err != nil {
		return err
	}
	meta := Meta{NumPages: int32(end), CatalogRoot: catalogRoot, FreeHead: head}
	if err := writeSuperblock(f.file, 1-f.sbSlot, f.commitSeq+1, meta); err != nil {
		return err
	}
	if err := f.sync(f.file, "database"); err != nil {
		return err
	}

	// Sealed: the listed pages, held ones included, are reusable now, and
	// retired ones will be once their holder frees them; the new trunks
	// are held until the next seal.
	f.meta, f.sbSlot, f.numPages = meta, 1-f.sbSlot, end
	f.commitSeq++
	f.sealed = f.commitSeq
	storeMax(&f.durableSeq, f.commitSeq)
	free := ids[:0]
	for _, id := range ids {
		if _, ok := f.freeSet[id]; ok {
			free = append(free, id)
		}
	}
	f.free = free
	clear(f.freeSet)
	for _, id := range free {
		f.freeSet[id] = true
	}
	for _, id := range trunks {
		f.freeSet[id] = false
	}
	f.held = len(trunks)
	clear(f.fresh)
	for _, id := range retired {
		f.fresh[id] = struct{}{}
	}
	f.changed = false
	f.statLock.Lock()
	f.checkpoints.Add(1)
	f.statLock.Unlock()
	if f.ckptHist != nil {
		f.ckptHist.Observe(time.Since(start).Nanoseconds())
	}
	// Where a truncation fails, the bytes it would have cut are harmless:
	// slots past the sealed page count are never read, and recovery skips
	// the records the superblock covers.
	if size, err := f.file.Size(); err == nil && size > slotOff(PageID(end)) {
		_ = f.file.Truncate(slotOff(PageID(end)))
	}
	if f.wal.Truncate(0) == nil {
		f.walSize = 0
	}
	f.logged = 0
	return nil
}

// Close closes the file handles without sealing — abandoning everything
// since the last seal but the synced log, exactly as a crash would.
// Callers that want a clean file run a sync point first; engine.DB.Close
// does.
func (f *FileDisk) Close() error {
	err1 := f.file.Close()
	err2 := f.wal.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NumPages returns the number of allocated pages (including allocations
// not yet sealed).
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
// seal's duration in nanoseconds. Set once before the disk is shared (the
// engine does this at Open).
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
	commits, walBytes := f.LogSinceSync()
	st.WALBytes, st.CommitsSinceSync = walBytes, int64(commits)
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

// writeSuperblock renders meta, sealed at commit sequence seq, into
// superblock slot i (0 or 1).
func writeSuperblock(file File, i int, seq int64, m Meta) error {
	buf := make([]byte, superblockUsed)
	copy(buf, fileFormatMagic)
	binary.BigEndian.PutUint32(buf[8:], fileFormatVer)
	binary.BigEndian.PutUint32(buf[12:], PageSize)
	binary.BigEndian.PutUint64(buf[16:], uint64(seq))
	binary.BigEndian.PutUint32(buf[24:], uint32(m.NumPages))
	binary.BigEndian.PutUint32(buf[28:], uint32(m.CatalogRoot))
	binary.BigEndian.PutUint32(buf[32:], uint32(m.FreeHead))
	binary.BigEndian.PutUint32(buf[superblockUsed-4:], crc32.ChecksumIEEE(buf[:superblockUsed-4]))
	if _, err := file.WriteAt(buf, int64(i)*superblockSlot); err != nil {
		return fmt.Errorf("storage: superblock write: %w", err)
	}
	return nil
}

// readSuperblock returns the valid superblock with the higher sequence,
// that sequence and its slot. A slot that fails validation — damaged, or
// stamped with another format version or page size — is passed over while
// the other slot is valid. With no valid slot, the open fails with
// ErrFormatVersion when either slot carries another format, and otherwise
// with the first slot's failure (a short read, a bad magic, a checksum
// mismatch, an impossible sequence or Meta), which wraps ErrCorruptPage.
func readSuperblock(file File) (m Meta, seq int64, slot int, err error) {
	slot = -1
	var failed error
	for i := 0; i < 2; i++ {
		im, iseq, err := readSuperblockSlot(file, i)
		switch {
		case err != nil:
			if failed == nil || errors.Is(err, ErrFormatVersion) && !errors.Is(failed, ErrFormatVersion) {
				failed = err
			}
		case slot < 0 || iseq > seq:
			m, seq, slot = im, iseq, i
		}
	}
	if slot < 0 {
		return Meta{}, 0, 0, failed
	}
	return m, seq, slot, nil
}

// readSuperblockSlot validates and decodes superblock slot i.
func readSuperblockSlot(file File, i int) (Meta, int64, error) {
	buf := make([]byte, superblockUsed)
	n, err := file.ReadAt(buf, int64(i)*superblockSlot)
	if err != nil && err != io.EOF {
		return Meta{}, 0, fmt.Errorf("storage: superblock read: %w", err)
	}
	if n < 12 || string(buf[:8]) != fileFormatMagic {
		return Meta{}, 0, fmt.Errorf("storage: superblock %d: not a twigdb database (short or bad magic): %w", i, ErrCorruptPage)
	}
	// The version first, so an older, shorter layout is refused as such.
	if v := binary.BigEndian.Uint32(buf[8:]); v != fileFormatVer {
		return Meta{}, 0, fmt.Errorf("%w %d (this build reads version %d only)", ErrFormatVersion, v, fileFormatVer)
	}
	if n < superblockUsed {
		return Meta{}, 0, fmt.Errorf("storage: short superblock %d: %w", i, ErrCorruptPage)
	}
	if ps := binary.BigEndian.Uint32(buf[12:]); ps != PageSize {
		return Meta{}, 0, fmt.Errorf("%w: page size %d (this build uses %d)", ErrFormatVersion, ps, PageSize)
	}
	if crc32.ChecksumIEEE(buf[:superblockUsed-4]) != binary.BigEndian.Uint32(buf[superblockUsed-4:]) {
		return Meta{}, 0, fmt.Errorf("storage: superblock %d checksum mismatch: %w", i, ErrCorruptPage)
	}
	seq := int64(binary.BigEndian.Uint64(buf[16:]))
	m := Meta{
		NumPages:    int32(binary.BigEndian.Uint32(buf[24:])),
		CatalogRoot: PageID(binary.BigEndian.Uint32(buf[28:])),
		FreeHead:    PageID(binary.BigEndian.Uint32(buf[32:])),
	}
	if !m.valid() || seq < 0 || seq == math.MaxInt64 {
		return Meta{}, 0, fmt.Errorf("storage: superblock %d (sequence %d) %+v: %w", i, seq, m, ErrCorruptPage)
	}
	return m, seq, nil
}
