package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
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
	// Uncommitted frames are visible to the owning process.
	buf := make([]byte, PageSize)
	if err := f.Read(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('c')) {
		t.Fatal("read of pending frame returned stale data")
	}
	if err := f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := f.DeviceStats(); st.WALBytes != 0 || st.Checkpoints != 1 || st.WALFsyncs < 1 {
		t.Fatalf("unexpected stats after checkpoint: %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	if re.NumPages() != 4 {
		t.Fatalf("reopened NumPages = %d, want 4", re.NumPages())
	}
	for i := 0; i < 4; i++ {
		if err := re.Read(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(byte('a'+i))) {
			t.Fatalf("page %d content mismatch after reopen", i)
		}
	}
}

// TestFileDiskUncommittedLost: frames without a commit record vanish on
// reopen, as a crash demands.
func TestFileDiskUncommittedLost(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 2)
	if err := f.Write(0, fillPage('x')); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	// Overwrite page 0 and allocate more — never committed.
	allocate(f, 5)
	if err := f.Write(0, fillPage('y')); err != nil {
		t.Fatal(err)
	}
	f.Close() // crash: no commit, no checkpoint

	re := mustOpenFD(t, path)
	defer re.Close()
	if re.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2 (uncommitted allocations lost)", re.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := re.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('x')) {
		t.Fatal("uncommitted overwrite survived reopen")
	}
}

// TestFileDiskTornTail truncates the WAL at every possible byte offset and
// verifies recovery always lands exactly on the last commit record that
// fully fits.
func TestFileDiskTornTail(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 3)
	type mark struct {
		end  int64
		vals [3]byte // committed page contents, 0 = never written
	}
	var marks []mark
	vals := [3]byte{}
	commit := func() {
		if err := f.Commit(Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{end: f.WALSize(), vals: vals})
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		for j := 0; j < 1+rng.Intn(3); j++ {
			pg := rng.Intn(3)
			v := byte('a' + rng.Intn(26))
			if err := f.Write(PageID(pg), fillPage(v)); err != nil {
				t.Fatal(err)
			}
			vals[pg] = v
		}
		commit()
	}
	walSize := f.WALSize()
	f.Close() // no checkpoint: everything lives in the WAL

	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != walSize {
		t.Fatalf("wal length %d != reported %d", len(wal), walSize)
	}

	// Sample offsets exhaustively at commit boundaries and randomly inside.
	offsets := map[int64]bool{0: true, walSize: true}
	for _, m := range marks {
		offsets[m.end] = true
		offsets[m.end-1] = true
		offsets[m.end+1] = true
	}
	for i := 0; i < 64; i++ {
		offsets[int64(rng.Intn(len(wal)+1))] = true
	}
	for off := range offsets {
		if off < 0 || off > walSize {
			continue
		}
		dir := t.TempDir()
		cp := filepath.Join(dir, "crash.db")
		copyFile(t, path, cp)
		os.WriteFile(cp+WALSuffix, wal[:off], 0o644)

		want := mark{} // before any commit: all pages zero... but NumPages?
		for _, m := range marks {
			if m.end <= off {
				want = m
			}
		}
		re := mustOpenFD(t, cp)
		if want.end == 0 {
			// No commit survived: fresh database.
			if re.NumPages() != 0 {
				t.Fatalf("off=%d: NumPages=%d, want 0", off, re.NumPages())
			}
			re.Close()
			continue
		}
		buf := make([]byte, PageSize)
		for pg := 0; pg < 3; pg++ {
			if err := re.Read(PageID(pg), buf); err != nil {
				t.Fatalf("off=%d page=%d: %v", off, pg, err)
			}
			if !bytes.Equal(buf, fillPage(want.vals[pg])) {
				t.Fatalf("off=%d page=%d: got %q-fill, want %q-fill", off, pg, buf[0], want.vals[pg])
			}
		}
		re.Close()
	}
}

// TestFileDiskCorruptTail flips one byte in the WAL tail: recovery must
// stop at the corruption and keep the prefix.
func TestFileDiskCorruptTail(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 1)
	f.Write(0, fillPage('a'))
	f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	firstEnd := f.WALSize()
	f.Write(0, fillPage('b'))
	f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	f.Close()

	wal, _ := os.ReadFile(path + WALSuffix)
	wal[firstEnd+10] ^= 0xFF // inside the second frame record
	os.WriteFile(path+WALSuffix, wal, 0o644)

	re := mustOpenFD(t, path)
	defer re.Close()
	buf := make([]byte, PageSize)
	if err := re.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('a')) {
		t.Fatal("recovery did not stop at the corrupted record")
	}
	if re.WALSize() != firstEnd {
		t.Fatalf("torn tail not truncated: wal size %d, want %d", re.WALSize(), firstEnd)
	}
}

// TestFileDiskCheckpointIdempotent: a crash between the database-file
// flush and the WAL truncation leaves both copies; replaying the WAL again
// must be harmless.
func TestFileDiskCheckpointIdempotent(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 2)
	f.Write(0, fillPage('p'))
	f.Write(1, fillPage('q'))
	f.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	walCopy, _ := os.ReadFile(path + WALSuffix)
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Restore the WAL as if truncation never happened.
	os.WriteFile(path+WALSuffix, walCopy, 0o644)

	re := mustOpenFD(t, path)
	defer re.Close()
	buf := make([]byte, PageSize)
	for pg, want := range []byte{'p', 'q'} {
		if err := re.Read(PageID(pg), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(want)) {
			t.Fatalf("page %d mismatch after redundant replay", pg)
		}
	}
}

func TestFileDiskBadSuperblock(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 1)
	f.Write(0, fillPage('z'))
	f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	f.Checkpoint()
	f.Close()

	raw, _ := os.ReadFile(path)
	raw[3] ^= 0xFF // corrupt the magic
	os.WriteFile(path, raw, 0o644)
	if _, err := OpenFileDisk(path); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("open of corrupt superblock: got %v, want ErrCorruptPage", err)
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
// boundaries around the frame header: a crash can leave the WAL ending
// precisely at the last commit record (a zero-length tail) or with 1–7
// bytes of a following frame header (type byte plus a partial page id —
// walFrameHeaderSize is 5, so also cover a short stretch of payload).
// Recovery must keep the committed state and truncate the log back to the
// commit boundary in every case.
func TestFileDiskTornFrameHeaderBoundary(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 2)
	f.Write(0, fillPage('a'))
	f.Write(1, fillPage('b'))
	if err := f.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	committedEnd := f.WALSize()
	// Append one more full frame (never committed), then cut its header.
	f.Write(0, fillPage('c'))
	f.Close()
	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) <= committedEnd {
		t.Fatalf("no uncommitted frame appended (wal %d, committed %d)", len(wal), committedEnd)
	}

	for tail := 0; tail <= 7; tail++ {
		dir := t.TempDir()
		cp := filepath.Join(dir, "crash.db")
		copyFile(t, path, cp)
		if err := os.WriteFile(cp+WALSuffix, wal[:committedEnd+int64(tail)], 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpenFD(t, cp)
		if got := re.WALSize(); got != committedEnd {
			t.Fatalf("tail=%d: recovered wal size %d, want truncation to %d", tail, got, committedEnd)
		}
		buf := make([]byte, PageSize)
		for pg, want := range []byte{'a', 'b'} {
			if err := re.Read(PageID(pg), buf); err != nil {
				t.Fatalf("tail=%d page=%d: %v", tail, pg, err)
			}
			if !bytes.Equal(buf, fillPage(want)) {
				t.Fatalf("tail=%d page=%d: content lost", tail, pg)
			}
		}
		// The truncation must be real (the next append starts at the
		// committed boundary), not just an in-memory offset.
		if err := re.Write(0, fillPage('d')); err != nil {
			t.Fatal(err)
		}
		if err := re.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
			t.Fatal(err)
		}
		re.Close()
		re2 := mustOpenFD(t, cp)
		if err := re2.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage('d')) {
			t.Fatalf("tail=%d: post-recovery commit lost", tail)
		}
		re2.Close()
	}
}

// TestFileDiskGroupCommitCoalesces: N commits appended with CommitAsync and
// then awaited together must cost one fsync, not N — the group-commit
// amortisation in its most deterministic form.
func TestFileDiskGroupCommitCoalesces(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	allocate(f, 1)
	before := f.DeviceStats()
	var last int64
	const commits = 8
	for i := 0; i < commits; i++ {
		if err := f.Write(0, fillPage(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
		seq, err := f.CommitAsync(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
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
// commit path must keep the one-durable-prefix invariant — wherever a
// crash cuts the log, recovery lands on exactly the newest commit record
// that fully fits, never on a mix of two commits.
func TestFileDiskGroupCommitDurablePrefix(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 2)
	type state struct {
		end  int64
		vals [2]byte
	}
	var states []state
	vals := [2]byte{}
	var last int64
	for i := 0; i < 6; i++ {
		pg := i % 2
		v := byte('a' + i)
		if err := f.Write(PageID(pg), fillPage(v)); err != nil {
			t.Fatal(err)
		}
		vals[pg] = v
		seq, err := f.CommitAsync(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
		if err != nil {
			t.Fatal(err)
		}
		last = seq
		states = append(states, state{end: f.WALSize(), vals: vals})
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

	// Cut points: every commit boundary ±8 bytes, plus a random sample of
	// interior offsets (exhaustive per-byte cutting is covered for one
	// record by TestFileDiskTornFrameHeaderBoundary and would take minutes
	// here).
	offsets := map[int64]bool{0: true, walSize: true}
	for _, s := range states {
		for d := int64(-8); d <= 8; d++ {
			if o := s.end + d; o >= 0 && o <= walSize {
				offsets[o] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 48; i++ {
		offsets[int64(rng.Intn(int(walSize)+1))] = true
	}
	for off := range offsets {
		want := state{}
		for _, s := range states {
			if s.end <= off {
				want = s
			}
		}
		dir := t.TempDir()
		cp := filepath.Join(dir, "crash.db")
		copyFile(t, path, cp)
		os.WriteFile(cp+WALSuffix, wal[:off], 0o644)
		re := mustOpenFD(t, cp)
		if want.end == 0 {
			if re.NumPages() != 0 {
				t.Fatalf("off=%d: NumPages=%d, want 0", off, re.NumPages())
			}
			re.Close()
			continue
		}
		if got := re.WALSize(); got != want.end {
			t.Fatalf("off=%d: recovered to %d, want %d", off, got, want.end)
		}
		buf := make([]byte, PageSize)
		for pg := 0; pg < 2; pg++ {
			if err := re.Read(PageID(pg), buf); err != nil {
				t.Fatalf("off=%d page=%d: %v", off, pg, err)
			}
			if !bytes.Equal(buf, fillPage(want.vals[pg])) {
				t.Fatalf("off=%d page=%d: got %q-fill, want %q-fill (torn across commits)", off, pg, buf[0], want.vals[pg])
			}
		}
		re.Close()
	}
}

// TestFileDiskGroupCommitConcurrent hammers CommitAsync/SyncTo from many
// goroutines (each its own committed write) and checks that the shared
// fsync path both amortises (fewer fsyncs than commits) and loses nothing.
func TestFileDiskGroupCommitConcurrent(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	const writers = 8
	allocate(f, writers)
	before := f.DeviceStats()
	var wg sync.WaitGroup
	var commitMu sync.Mutex // one committer at a time, like the engine's writeMu
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				commitMu.Lock()
				err := f.Write(PageID(w), fillPage(byte('a'+round)))
				var seq int64
				if err == nil {
					seq, err = f.CommitAsync(Meta{NumPages: writers, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
				}
				commitMu.Unlock()
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
	after := f.DeviceStats()
	commits := int64(writers * 4)
	fsyncs := after.WALFsyncs - before.WALFsyncs
	if fsyncs < 1 || fsyncs > commits {
		t.Fatalf("fsyncs = %d for %d commits", fsyncs, commits)
	}
	f.Close()

	re := mustOpenFD(t, path)
	defer re.Close()
	buf := make([]byte, PageSize)
	for w := 0; w < writers; w++ {
		if err := re.Read(PageID(w), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage('d')) {
			t.Fatalf("writer %d final round lost (got %q-fill)", w, buf[0])
		}
	}
}
