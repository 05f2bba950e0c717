package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func tmpDB(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "twig.db")
}

func fillPage(b byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// allocate reserves n pages with Allocate and returns the first id; on an
// empty free list the n ids are consecutive.
func allocate(f *FileDisk, n int) PageID {
	first := f.Allocate()
	for i := 1; i < n; i++ {
		f.Allocate()
	}
	return first
}

func mustOpenFD(t *testing.T, path string) *FileDisk {
	t.Helper()
	f, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// seal runs a seal with no catalog and nothing retired, failing the test
// on an error.
func seal(t *testing.T, f *FileDisk) {
	t.Helper()
	if err := f.Seal(InvalidPage, nil); err != nil {
		t.Fatal(err)
	}
}

// logged appends a logical record carrying payload and waits for it to be
// durable.
func logged(t *testing.T, f *FileDisk, payload string) {
	t.Helper()
	seq, err := f.CommitLogical([]byte(payload))
	if err == nil {
		err = f.SyncTo(seq)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	if got := allocate(f, 3); got != 0 {
		t.Fatalf("first allocation = %d, want 0", got)
	}
	if got := f.Allocate(); got != 3 {
		t.Fatalf("fourth allocation = %d, want 3", got)
	}
	for i := 0; i < 4; i++ {
		if err := f.Write(PageID(i), fillPage(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Unsealed pages are visible to the owning process.
	buf := make([]byte, PageSize)
	if err := f.Read(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('c')) {
		t.Fatal("read of an unsealed page returned stale data")
	}
	logged(t, f, "r")
	seal(t, f)
	if st := f.DeviceStats(); st.WALBytes != 0 || st.Checkpoints != 1 || st.WALFsyncs != 1 || st.Writes != 4 {
		t.Fatalf("unexpected stats after the seal: %+v", st)
	}
	// Nothing changed since: a second seal writes nothing.
	seal(t, f)
	if st := f.DeviceStats(); st.Checkpoints != 1 || st.Writes != 4 {
		t.Fatalf("an idle seal wrote: %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	if re.NumPages() != 4 {
		t.Fatalf("reopened NumPages = %d, want 4", re.NumPages())
	}
	requireLog(t, "reopen", re)
	for i := 0; i < 4; i++ {
		requirePage(t, "reopen", re, PageID(i), byte('a'+i))
	}
}

// TestFileDiskUncommittedLost: pages written and allocated since the last
// seal vanish on reopen, as a crash demands, and the sealed images they
// replace copy-on-write survive — a page the sealed state reaches is held
// back from reuse until the next seal, so its slot is never overwritten.
func TestFileDiskUncommittedLost(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 2)
	if err := f.Write(0, fillPage('x')); err != nil {
		t.Fatal(err)
	}
	seal(t, f)
	// Replace page 0 copy-on-write and allocate more — never sealed.
	if err := f.Free(0); err != nil {
		t.Fatal(err)
	}
	cp := allocate(f, 5)
	if cp == 0 {
		t.Fatal("the sealed page was reused before the next seal")
	}
	if err := f.Write(0, fillPage('y')); err == nil {
		t.Fatal("a write of the held page succeeded")
	}
	if err := f.Write(cp, fillPage('y')); err != nil {
		t.Fatal(err)
	}
	f.Close() // crash: no seal

	re := mustOpenFD(t, path)
	defer re.Close()
	if re.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2 (unsealed allocations lost)", re.NumPages())
	}
	requirePage(t, "reopen", re, 0, 'x')
	if free := re.FreeList(); len(free) != 0 {
		t.Fatalf("unsealed free survived the crash: %v", free)
	}
}

// TestFileDiskTornTail truncates the WAL at every byte offset and verifies
// recovery always replays exactly the logical records that fully fit.
func TestFileDiskTornTail(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 1)
	f.Write(0, fillPage('s'))
	seal(t, f)
	var ends []int64
	var payloads []string
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		p := strings.Repeat(string(rune('a'+i)), 1+rng.Intn(40))
		logged(t, f, p)
		payloads = append(payloads, p)
		ends = append(ends, f.WALSize())
	}
	walSize := f.WALSize()
	f.Close()

	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != walSize {
		t.Fatalf("wal length %d != reported %d", len(wal), walSize)
	}
	for off := int64(0); off <= walSize; off++ {
		cp := filepath.Join(t.TempDir(), "crash.db")
		copyFile(t, path, cp)
		os.WriteFile(cp+WALSuffix, wal[:off], 0o644)
		kept, end := 0, int64(0)
		for i, e := range ends {
			if e <= off {
				kept, end = i+1, e
			}
		}
		re := mustOpenFD(t, cp)
		requireLog(t, fmt.Sprintf("off=%d", off), re, payloads[:kept]...)
		requirePage(t, fmt.Sprintf("off=%d", off), re, 0, 's')
		if re.WALSize() != end {
			t.Fatalf("off=%d: recovered WAL %d bytes, want %d", off, re.WALSize(), end)
		}
		re.Close()
	}
}

// TestFileDiskCorruptTail flips one byte in the WAL tail: recovery must
// stop at the corruption and keep the prefix.
func TestFileDiskCorruptTail(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	logged(t, f, "first")
	firstEnd := f.WALSize()
	logged(t, f, "second")
	f.Close()

	wal, _ := os.ReadFile(path + WALSuffix)
	wal[firstEnd+walLogicalHeader+2] ^= 0xFF // inside the second record's payload
	os.WriteFile(path+WALSuffix, wal, 0o644)

	re := mustOpenFD(t, path)
	defer re.Close()
	requireLog(t, "corrupt tail", re, "first")
	if re.WALSize() != firstEnd {
		t.Fatalf("torn tail not truncated: wal size %d, want %d", re.WALSize(), firstEnd)
	}
}

// TestFileDiskCheckpointIdempotent: a crash between the seal's superblock
// and its log truncation leaves the log whole; recovery must skip the
// records the superblock's sequence covers, and replay the ones logged
// after them.
func TestFileDiskCheckpointIdempotent(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 2)
	f.Write(0, fillPage('p'))
	f.Write(1, fillPage('q'))
	logged(t, f, "one")
	logged(t, f, "two")
	walCopy, _ := os.ReadFile(path + WALSuffix)
	seal(t, f)
	f.Close()
	// Restore the WAL as if truncation never happened.
	os.WriteFile(path+WALSuffix, walCopy, 0o644)

	re := mustOpenFD(t, path)
	requireLog(t, "sealed records", re)
	requirePage(t, "sealed records", re, 0, 'p')
	requirePage(t, "sealed records", re, 1, 'q')
	logged(t, re, "three")
	re.Close()
	re2 := mustOpenFD(t, path)
	defer re2.Close()
	requireLog(t, "after the sealed records", re2, "three")
}

// TestFileDiskBadSuperblock: a damaged older superblock — its version
// field included — is passed over for the valid newer one; a corrupt newer
// superblock falls back to the older one; with both corrupt the open fails
// typed.
func TestFileDiskBadSuperblock(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 1)
	f.Write(0, fillPage('z'))
	seal(t, f) // into the second slot; the first keeps the empty database
	f.Close()

	raw, _ := os.ReadFile(path)
	stamped := slices.Clone(raw)
	binary.BigEndian.PutUint32(stamped[8:], fileFormatVer+1)
	sealSuperblock(stamped)
	os.WriteFile(path, stamped, 0o644)
	re := mustOpenFD(t, path)
	if re.NumPages() != 1 {
		t.Fatalf("with the older superblock's version damaged, NumPages = %d, want the newer 1", re.NumPages())
	}
	requirePage(t, "older superblock's version damaged", re, 0, 'z')
	re.Close()

	raw[superblockSlot+3] ^= 0xFF // corrupt the newer superblock's magic
	os.WriteFile(path, raw, 0o644)
	re = mustOpenFD(t, path)
	if re.NumPages() != 0 {
		t.Fatalf("with the newer superblock corrupt, NumPages = %d, want the older 0", re.NumPages())
	}
	re.Close()
	raw[3] ^= 0xFF // and the older one's
	os.WriteFile(path, raw, 0o644)
	if _, err := OpenFileDisk(path); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("open of corrupt superblocks: got %v, want ErrCorruptPage", err)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileDiskTornFrameHeaderBoundary pins down the exact torn-tail
// boundaries around a log record's frame header: a crash can leave the WAL
// ending precisely after the last whole record (a zero-length tail) or
// with part of a following record's header (type byte, sequence number,
// length — walLogicalHeader is 13 bytes, so also cover a short stretch of
// payload). Recovery must keep the whole records and truncate the log
// back to their end in every case.
func TestFileDiskTornFrameHeaderBoundary(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	logged(t, f, "kept")
	committedEnd := f.WALSize()
	// Append one more record, then cut its header.
	logged(t, f, "torn away")
	f.Close()
	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}

	for tail := 0; tail <= walLogicalHeader+3; tail++ {
		cp := filepath.Join(t.TempDir(), "crash.db")
		copyFile(t, path, cp)
		if err := os.WriteFile(cp+WALSuffix, wal[:committedEnd+int64(tail)], 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpenFD(t, cp)
		if got := re.WALSize(); got != committedEnd {
			t.Fatalf("tail=%d: recovered wal size %d, want truncation to %d", tail, got, committedEnd)
		}
		requireLog(t, fmt.Sprintf("tail=%d", tail), re, "kept")
		// The truncation must be real (the next append starts at the
		// record boundary), not just an in-memory offset.
		logged(t, re, "next")
		re.Close()
		re2 := mustOpenFD(t, cp)
		requireLog(t, fmt.Sprintf("tail=%d, reopened", tail), re2, "kept", "next")
		re2.Close()
	}
}

// TestFileDiskGroupCommitCoalesces: N logical commits appended and then
// awaited together must cost one fsync, not N — the group-commit
// amortisation in its most deterministic form.
func TestFileDiskGroupCommitCoalesces(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	before := f.DeviceStats()
	var last int64
	const commits = 8
	for i := 0; i < commits; i++ {
		seq, err := f.CommitLogical([]byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i+1) {
			t.Fatalf("commit %d: seq = %d", i, seq)
		}
		last = seq
	}
	if err := f.SyncTo(last); err != nil {
		t.Fatal(err)
	}
	after := f.DeviceStats()
	if got := after.WALFsyncs - before.WALFsyncs; got != 1 {
		t.Fatalf("%d commits cost %d fsyncs, want 1", commits, got)
	}
	if got := after.GroupCommitBatches - before.GroupCommitBatches; got != 1 {
		t.Fatalf("GroupCommitBatches = %d, want 1", got)
	}
	// Earlier sequences are covered by the same batch: no further fsync.
	if err := f.SyncTo(1); err != nil {
		t.Fatal(err)
	}
	if got := f.DeviceStats().WALFsyncs - before.WALFsyncs; got != 1 {
		t.Fatalf("covered SyncTo issued an extra fsync (total %d)", got)
	}
}

// TestFileDiskGroupCommitDurablePrefix: a WAL built through the async
// commit path, with a seal in the middle, must keep the one-durable-prefix
// invariant — wherever a crash cuts the log, recovery lands on the sealed
// pages plus exactly the records that fully fit, never a torn one.
func TestFileDiskGroupCommitDurablePrefix(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 1)
	f.Write(0, fillPage('a'))
	logged(t, f, "sealed")
	seal(t, f)
	var ends []int64
	var payloads []string
	var last int64
	for i := 0; i < 6; i++ {
		p := strings.Repeat(string(rune('b'+i)), 3+i)
		seq, err := f.CommitLogical([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
		payloads = append(payloads, p)
		ends = append(ends, f.WALSize())
	}
	if err := f.SyncTo(last); err != nil {
		t.Fatal(err)
	}
	walSize := f.WALSize()
	f.Close()
	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off <= walSize; off++ {
		kept := 0
		for i, e := range ends {
			if e <= off {
				kept = i + 1
			}
		}
		cp := filepath.Join(t.TempDir(), "crash.db")
		copyFile(t, path, cp)
		os.WriteFile(cp+WALSuffix, wal[:off], 0o644)
		re := mustOpenFD(t, cp)
		tag := fmt.Sprintf("off=%d", off)
		requireLog(t, tag, re, payloads[:kept]...)
		requirePage(t, tag, re, 0, 'a')
		if st := re.DeviceStats(); st.RecoveredCommits != int64(kept) {
			t.Fatalf("%s: RecoveredCommits %d, want %d", tag, st.RecoveredCommits, kept)
		}
		re.Close()
	}
}

// TestFileDiskGroupCommitConcurrent hammers CommitLogical/SyncTo from many
// goroutines and checks that the shared fsync path both amortises (no more
// fsyncs than commits) and loses nothing.
func TestFileDiskGroupCommitConcurrent(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	const writers, rounds = 8, 4
	before := f.DeviceStats()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				seq, err := f.CommitLogical([]byte(fmt.Sprintf("w%d r%d", w, round)))
				if err == nil {
					err = f.SyncTo(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fsyncs := f.DeviceStats().WALFsyncs - before.WALFsyncs
	if fsyncs < 1 || fsyncs > writers*rounds {
		t.Fatalf("fsyncs = %d for %d commits", fsyncs, writers*rounds)
	}
	f.Close()

	re := mustOpenFD(t, path)
	defer re.Close()
	got := map[string]bool{}
	for _, p := range re.TakeRecoveredLog() {
		got[string(p)] = true
	}
	for w := 0; w < writers; w++ {
		for round := 0; round < rounds; round++ {
			if !got[fmt.Sprintf("w%d r%d", w, round)] {
				t.Fatalf("writer %d round %d lost (recovered %d records)", w, round, len(got))
			}
		}
	}
}
