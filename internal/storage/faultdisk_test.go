package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"
	"time"
)

// faultMode distinguishes the two trigger lifetimes of the table test.
type faultMode int

const (
	oneShot faultMode = iota
	sticky
)

func (m faultMode) String() string {
	if m == sticky {
		return "sticky"
	}
	return "one-shot"
}

// faultedFD opens a FileDisk in a temporary directory with inj attached,
// writes and commits one page filled with 's' while inj is disarmed, and
// returns the disk and that page's id; the caller arms inj.
func faultedFD(t *testing.T, inj *FaultInjector) (*FileDisk, PageID) {
	t.Helper()
	inj.Disarm()
	f := mustOpenFD(t, tmpDB(t))
	t.Cleanup(func() { f.Close() })
	f.SetFaultInjector(inj)
	id := f.AllocateN(1)
	if err := f.Write(id, fillPage('s')); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	return f, id
}

// readVerified reads page id and fails the test on a wrong answer: a read
// that succeeds must return want, and a failed one must be ErrCorruptPage.
// It returns the read's error.
func readVerified(t *testing.T, f *FileDisk, id PageID, want []byte) error {
	t.Helper()
	buf := make([]byte, PageSize)
	err := f.Read(id, buf)
	if err == nil && !bytes.Equal(buf, want) {
		t.Fatalf("read of page %d succeeded with a corrupt image", id)
	}
	if err != nil && !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of page %d: got %v, want ErrCorruptPage", id, err)
	}
	return err
}

// TestFaultDiskKinds drives every injectable fault kind but fsync (see
// TestFileDiskFsyncPoison) in both one-shot and sticky mode against a
// FileDisk. Errors are typed; bit flips and torn writes land below the
// page checksum, so they are detected and never served. For each kind it
// checks the first eligible operation is affected, then that a second
// operation is affected exactly when the rule is sticky.
func TestFaultDiskKinds(t *testing.T) {
	type tc struct {
		kind FaultKind
		// op performs one eligible operation and reports whether the fault
		// fired on it (via error or a detected checksum failure).
		op func(t *testing.T, f *FileDisk, id PageID, round int, sticky bool) bool
	}
	cases := []tc{
		{FaultReadErr, func(t *testing.T, f *FileDisk, id PageID, _ int, _ bool) bool {
			err := f.Read(id, make([]byte, PageSize))
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("read error not ErrInjected: %v", err)
			}
			return err != nil
		}},
		{FaultWriteErr, func(t *testing.T, f *FileDisk, id PageID, round int, _ bool) bool {
			err := f.Write(id, fillPage(byte('w'+round)))
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("write error not ErrInjected: %v", err)
			}
			return err != nil
		}},
		{FaultENOSPC, func(t *testing.T, f *FileDisk, id PageID, round int, _ bool) bool {
			err := f.Write(id, fillPage(byte('w'+round)))
			if err != nil && (!errors.Is(err, ErrNoSpace) || !errors.Is(err, ErrInjected)) {
				t.Fatalf("enospc error not ErrNoSpace+ErrInjected: %v", err)
			}
			return err != nil
		}},
		{FaultBitFlip, func(t *testing.T, f *FileDisk, id PageID, _ int, sticky bool) bool {
			before := f.DeviceStats()
			err := readVerified(t, f, id, fillPage('s'))
			after := f.DeviceStats()
			if after.ChecksumFailures == before.ChecksumFailures {
				if err != nil {
					t.Fatalf("read failed without a checksum failure: %v", err)
				}
				return false
			}
			// A one-shot flip is healed by the transparent re-read; a
			// sticky one survives it and surfaces typed.
			if sticky && err == nil {
				t.Fatal("sticky flip: read succeeded, want ErrCorruptPage")
			}
			if !sticky && (err != nil || after.ChecksumRetries != before.ChecksumRetries+1) {
				t.Fatalf("one-shot flip not healed by one retry: err=%v retries %d -> %d",
					err, before.ChecksumRetries, after.ChecksumRetries)
			}
			return true
		}},
		{FaultTornWrite, func(t *testing.T, f *FileDisk, id PageID, round int, _ bool) bool {
			v := fillPage(byte('A' + round))
			if err := f.Write(id, v); err != nil {
				t.Fatalf("torn write failed: %v", err)
			}
			// The torn frame is on the media, so no re-read heals it: one
			// that was torn reads as ErrCorruptPage in either mode.
			before := f.DeviceStats().ChecksumFailures
			err := readVerified(t, f, id, v)
			if (err != nil) != (f.DeviceStats().ChecksumFailures > before) {
				t.Fatalf("round %d: read error %v without a matching checksum failure", round, err)
			}
			return err != nil
		}},
		{FaultLatency, func(t *testing.T, f *FileDisk, id PageID, _ int, _ bool) bool {
			before := f.DeviceStats().InjectedFaults
			if err := readVerified(t, f, id, fillPage('s')); err != nil {
				t.Fatalf("latency read failed: %v", err)
			}
			return f.DeviceStats().InjectedFaults > before
		}},
	}
	for _, c := range cases {
		for _, mode := range []faultMode{oneShot, sticky} {
			t.Run(c.kind.String()+"/"+mode.String(), func(t *testing.T) {
				spec := FaultSpec{Kind: c.kind, Sticky: mode == sticky, Latency: time.Microsecond}
				inj := NewFaultInjector(1, spec)
				f, id := faultedFD(t, inj)
				inj.Arm()
				if !c.op(t, f, id, 0, mode == sticky) {
					t.Fatalf("first armed op not affected")
				}
				again := c.op(t, f, id, 1, mode == sticky)
				if mode == sticky && !again {
					t.Fatalf("sticky rule did not fire on second op")
				}
				if mode == oneShot && again {
					t.Fatalf("one-shot rule fired twice")
				}
				if inj.Stats().Counts[c.kind] == 0 {
					t.Fatalf("injector did not count the %s fault", c.kind)
				}
				if got := f.DeviceStats().InjectedFaults; got == 0 {
					t.Fatalf("DeviceStats.InjectedFaults = %d", got)
				}
			})
		}
	}
}

// TestFaultDiskAfterCounting: a counted rule with After=n skips the first n
// eligible operations.
func TestFaultDiskAfterCounting(t *testing.T) {
	inj := NewFaultInjector(1, FaultSpec{Kind: FaultReadErr, After: 2})
	f, id := faultedFD(t, inj)
	inj.Arm()
	buf := make([]byte, PageSize)
	for i := 0; i < 2; i++ {
		if err := f.Read(id, buf); err != nil {
			t.Fatalf("read %d failed before After: %v", i, err)
		}
	}
	if err := f.Read(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2: got %v, want ErrInjected", err)
	}
	if err := f.Read(id, buf); err != nil {
		t.Fatalf("read after one-shot firing: %v", err)
	}
}

// TestFaultInjectorDeterminism: identical seeds, specs and operation
// sequences produce identical fault patterns.
func TestFaultInjectorDeterminism(t *testing.T) {
	run := func() []bool {
		inj := NewFaultInjector(99, FaultSpec{Kind: FaultReadErr, Prob: 0.3})
		f, id := faultedFD(t, inj)
		inj.Arm()
		buf := make([]byte, PageSize)
		var pattern []bool
		for i := 0; i < 64; i++ {
			pattern = append(pattern, f.Read(id, buf) != nil)
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: run A injected=%v, run B injected=%v", i, a[i], b[i])
		}
	}
}

// TestFaultDiskArmGate: a disarmed injector is inert and does not advance
// counted rules.
func TestFaultDiskArmGate(t *testing.T) {
	inj := NewFaultInjector(1, FaultSpec{Kind: FaultReadErr})
	f, id := faultedFD(t, inj)
	buf := make([]byte, PageSize)
	for i := 0; i < 5; i++ {
		if err := f.Read(id, buf); err != nil {
			t.Fatalf("disarmed read %d failed: %v", i, err)
		}
	}
	inj.Arm()
	// The rule's After=0 counter must not have been consumed while disarmed.
	if err := f.Read(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed read: got %v, want ErrInjected", err)
	}
}

// TestFileDiskFsyncPoison: an injected WAL fsync failure surfaces from
// SyncTo, poisons the disk (fsyncgate semantics), and every subsequent
// write-side operation is rejected with ErrPoisoned while reads keep
// serving the pre-failure state.
func TestFileDiskFsyncPoison(t *testing.T) {
	path := tmpDB(t)
	inj := NewFaultInjector(1, FaultSpec{Kind: FaultFsyncErr})
	inj.Disarm()
	f := mustOpenFD(t, path)
	f.SetFaultInjector(inj)
	f.AllocateN(1)
	if err := f.Write(0, fillPage('a')); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	inj.Arm()

	if err := f.Write(0, fillPage('b')); err != nil {
		t.Fatal(err) // append itself is fine; only the fsync fails
	}
	seq, err := f.CommitAsync(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	if err != nil {
		t.Fatal(err)
	}
	err = f.SyncTo(seq)
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncTo after fsync fault: got %v, want ErrPoisoned wrapping ErrInjected", err)
	}
	if f.Poisoned() == nil {
		t.Fatal("disk not poisoned after fsync failure")
	}

	// Every write-side operation is now rejected...
	if err := f.Write(0, fillPage('c')); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Write on poisoned disk: got %v, want ErrPoisoned", err)
	}
	if _, err := f.CommitAsync(Meta{NumPages: 1}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("CommitAsync on poisoned disk: got %v, want ErrPoisoned", err)
	}
	if err := f.Checkpoint(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Checkpoint on poisoned disk: got %v, want ErrPoisoned", err)
	}
	// ...while reads keep working: the in-process image still serves the
	// last appended frame (durability, not visibility, is what failed).
	buf := make([]byte, PageSize)
	if err := f.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('b')) {
		t.Fatalf("poisoned read served %q-fill", buf[0])
	}
	if st := f.DeviceStats(); !st.Poisoned || st.InjectedFaults == 0 {
		t.Fatalf("stats after poison: %+v", st)
	}
	f.Close()

	// Reopen: the un-synced commit may or may not have reached the medium
	// (here the OS file was written, only the fsync was refused), but the
	// database must recover to a consistent committed state.
	re := mustOpenFD(t, path)
	defer re.Close()
	if re.Poisoned() != nil {
		t.Fatal("poison must not survive reopen")
	}
	if err := re.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'a' && buf[0] != 'b' {
		t.Fatalf("recovered to %q-fill, want a or b", buf[0])
	}
}

// TestFileDiskInjectedWriteErrorRetryable: an injected WAL append failure
// is clean — no poison, and the very same write succeeds when retried.
func TestFileDiskInjectedWriteErrorRetryable(t *testing.T) {
	path := tmpDB(t)
	inj := NewFaultInjector(1, FaultSpec{Kind: FaultWriteErr})
	inj.Disarm()
	f := mustOpenFD(t, path)
	defer f.Close()
	f.SetFaultInjector(inj)
	f.AllocateN(1)
	inj.Arm()
	if err := f.Write(0, fillPage('a')); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if f.Poisoned() != nil {
		t.Fatal("failed append must not poison")
	}
	if err := f.Write(0, fillPage('a')); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if err := f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := f.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('a')) {
		t.Fatal("retried write lost")
	}
}

// TestFileDiskBitFlipRetry: a transient (one-shot) bit flip on the read
// path is caught by the checksum and healed by the transparent retry; a
// sticky flip exhausts the retry and surfaces ErrCorruptPage.
func TestFileDiskBitFlipRetry(t *testing.T) {
	t.Run("transient", func(t *testing.T) {
		path := tmpDB(t)
		inj := NewFaultInjector(5, FaultSpec{Kind: FaultBitFlip})
		inj.Disarm()
		f := mustOpenFD(t, path)
		defer f.Close()
		f.SetFaultInjector(inj)
		f.AllocateN(1)
		f.Write(0, fillPage('a'))
		f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
		inj.Arm()
		buf := make([]byte, PageSize)
		if err := f.Read(0, buf); err != nil {
			t.Fatalf("transient flip not healed by retry: %v", err)
		}
		if !bytes.Equal(buf, fillPage('a')) {
			t.Fatal("retry served corrupt data")
		}
		st := f.DeviceStats()
		if st.ChecksumFailures != 1 || st.ChecksumRetries != 1 {
			t.Fatalf("failures=%d retries=%d, want 1/1", st.ChecksumFailures, st.ChecksumRetries)
		}
	})
	t.Run("sticky", func(t *testing.T) {
		path := tmpDB(t)
		inj := NewFaultInjector(5, FaultSpec{Kind: FaultBitFlip, Sticky: true})
		inj.Disarm()
		f := mustOpenFD(t, path)
		defer f.Close()
		f.SetFaultInjector(inj)
		f.AllocateN(1)
		f.Write(0, fillPage('a'))
		f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
		inj.Arm()
		if err := f.Read(0, make([]byte, PageSize)); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("sticky flip: got %v, want ErrCorruptPage", err)
		}
		st := f.DeviceStats()
		if st.ChecksumFailures != 2 || st.ChecksumRetries != 1 {
			t.Fatalf("failures=%d retries=%d, want 2/1", st.ChecksumFailures, st.ChecksumRetries)
		}
	})
}

// TestFileDiskChecksumCatchesDiskCorruption flips one byte of a page slot
// in the database file on disk: the next read must fail typed, not serve
// garbage.
func TestFileDiskChecksumCatchesDiskCorruption(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(2)
	f.Write(0, fillPage('a'))
	f.Write(1, fillPage('b'))
	f.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[slotOff(1)+137] ^= 0x40 // one flipped bit inside page 1's image
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	buf := make([]byte, PageSize)
	if err := re.Read(0, buf); err != nil || !bytes.Equal(buf, fillPage('a')) {
		t.Fatalf("intact page 0 unreadable: %v", err)
	}
	if err := re.Read(1, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corrupt page 1: got %v, want ErrCorruptPage", err)
	}
	if st := re.DeviceStats(); st.ChecksumFailures < 2 {
		t.Fatalf("ChecksumFailures = %d, want >= 2 (original + retry)", st.ChecksumFailures)
	}
}

// TestFileDiskChecksumCatchesWALCorruption flips a payload byte of a
// committed WAL frame out from under a live FileDisk: the shadow read must
// fail typed, and a checkpoint must refuse to launder the corrupt frame
// into the database file under a fresh valid checksum.
func TestFileDiskChecksumCatchesWALCorruption(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	f.AllocateN(1)
	f.Write(0, fillPage('a'))
	f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})

	wal, err := os.OpenFile(path+WALSuffix, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 starts at WAL offset 0; flip a byte inside its payload.
	if _, err := wal.WriteAt([]byte{'z'}, walFrameHeaderSize+99); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	if err := f.Read(0, make([]byte, PageSize)); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of corrupt WAL frame: got %v, want ErrCorruptPage", err)
	}
	if err := f.Checkpoint(); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("checkpoint of corrupt WAL frame: got %v, want ErrCorruptPage", err)
	}
	if f.Poisoned() != nil {
		t.Fatal("media corruption must not poison the disk (fsync never failed)")
	}
}

// TestFileDiskRejectsOldFormat: a file stamped with format version 1 (no
// page checksum trailers) must be refused with a version message, not read
// with misaligned offsets.
func TestFileDiskRejectsOldFormat(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(1)
	f.Write(0, fillPage('a'))
	f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	f.Checkpoint()
	f.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[8:], 1) // stamp v1 and re-seal the superblock CRC
	binary.BigEndian.PutUint32(raw[superblockUsed-4:], crc32.ChecksumIEEE(raw[:superblockUsed-4]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFileDisk(path)
	if err == nil {
		t.Fatal("open of v1 file succeeded")
	}
	if want := "unsupported format version 1"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the version", err)
	}
}

// TestFileDiskCorruptInteriorFrame corrupts a frame in the middle of a
// multi-commit WAL: recovery stops at the first bad record, keeps every
// commit before it, discards everything after (never a mix), and reports
// both facts through DeviceStats.
func TestFileDiskCorruptInteriorFrame(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(1)
	f.Write(0, fillPage('0'))
	f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err) // start the WAL empty so commit offsets are clean
	}
	var ends []int64
	for i := 0; i < 3; i++ {
		f.Write(0, fillPage(byte('a'+i)))
		if err := f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, f.WALSize())
	}
	walTotal := f.WALSize()
	f.Close()

	// Corrupt the second commit's frame payload (first byte after c1's end).
	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	wal[ends[0]+walFrameHeaderSize+50] ^= 0x01
	if err := os.WriteFile(path+WALSuffix, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	buf := make([]byte, PageSize)
	if err := re.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('a')) {
		t.Fatalf("recovered to %q-fill, want a (commit 1 only)", buf[0])
	}
	st := re.DeviceStats()
	if st.RecoveredCommits != 1 {
		t.Fatalf("RecoveredCommits = %d, want 1", st.RecoveredCommits)
	}
	if want := walTotal - ends[0]; st.WALBytesDiscarded != want {
		t.Fatalf("WALBytesDiscarded = %d, want %d", st.WALBytesDiscarded, want)
	}
	// The database stays writable after discarding the corrupt suffix.
	if err := re.Write(0, fillPage('z')); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
}

// TestFileDiskRecoveryCounters: a clean multi-commit WAL reports its commit
// count and zero discarded bytes on reopen.
func TestFileDiskRecoveryCounters(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(1)
	for i := 0; i < 3; i++ {
		f.Write(0, fillPage(byte('a'+i)))
		if err := f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	re := mustOpenFD(t, path)
	defer re.Close()
	st := re.DeviceStats()
	if st.RecoveredCommits != 3 || st.WALBytesDiscarded != 0 {
		t.Fatalf("RecoveredCommits=%d WALBytesDiscarded=%d, want 3/0", st.RecoveredCommits, st.WALBytesDiscarded)
	}
}
