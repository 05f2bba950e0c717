package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"strings"
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

// faultedFD opens an in-memory FileDisk with inj attached, writes one page
// filled with 's' while inj is disarmed, and returns the disk and that
// page's id; the caller arms inj.
func faultedFD(t *testing.T, inj *FaultInjector) (*FileDisk, PageID) {
	t.Helper()
	inj.Disarm()
	f := NewMemFileDisk()
	t.Cleanup(func() { f.Close() })
	f.SetFaultInjector(inj)
	id := allocate(f, 1)
	if err := f.Write(id, fillPage('s')); err != nil {
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
			// The torn slot is on the media, so no re-read heals it: one
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
	allocate(f, 1)
	if err := f.Write(0, fillPage('a')); err != nil {
		t.Fatal(err)
	}
	seal(t, f)
	inj.Arm()

	id := f.Allocate()
	if err := f.Write(id, fillPage('b')); err != nil {
		t.Fatal(err) // the write itself is fine; only the fsync fails
	}
	seq, err := f.CommitLogical([]byte("b"))
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
	if err := f.Write(id, fillPage('c')); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Write on poisoned disk: got %v, want ErrPoisoned", err)
	}
	if _, err := f.CommitLogical([]byte("c")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("CommitLogical on poisoned disk: got %v, want ErrPoisoned", err)
	}
	if err := f.Seal(InvalidPage, nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Seal on poisoned disk: got %v, want ErrPoisoned", err)
	}
	// ...while reads keep working: the in-process image still serves the
	// last written page (durability, not visibility, is what failed).
	requirePage(t, "poisoned", f, id, 'b')
	if st := f.DeviceStats(); !st.Poisoned || st.InjectedFaults == 0 {
		t.Fatalf("stats after poison: %+v", st)
	}
	f.Close()

	// Reopen: the unsynced record may or may not have reached the medium
	// (here the OS file was written, only the fsync was refused), but the
	// database must recover to a consistent state: the sealed page, and
	// the record whole or not at all.
	re := mustOpenFD(t, path)
	defer re.Close()
	if re.Poisoned() != nil {
		t.Fatal("poison must not survive reopen")
	}
	requirePage(t, "reopen", re, 0, 'a')
	if log := re.TakeRecoveredLog(); len(log) > 1 || len(log) == 1 && string(log[0]) != "b" {
		t.Fatalf("recovered log %q, want nothing or the record", log)
	}
}

// TestFileDiskInjectedWriteErrorRetryable: an injected page write failure
// is clean — no poison, and the very same write succeeds when retried.
func TestFileDiskInjectedWriteErrorRetryable(t *testing.T) {
	path := tmpDB(t)
	inj := NewFaultInjector(1, FaultSpec{Kind: FaultWriteErr})
	inj.Disarm()
	f := mustOpenFD(t, path)
	defer f.Close()
	f.SetFaultInjector(inj)
	allocate(f, 1)
	inj.Arm()
	if err := f.Write(0, fillPage('a')); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if f.Poisoned() != nil {
		t.Fatal("failed write must not poison")
	}
	if err := f.Write(0, fillPage('a')); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	seal(t, f)
	requirePage(t, "retried", f, 0, 'a')
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
		allocate(f, 1)
		f.Write(0, fillPage('a'))
		seal(t, f)
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
		allocate(f, 1)
		f.Write(0, fillPage('a'))
		seal(t, f)
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
	allocate(f, 2)
	f.Write(0, fillPage('a'))
	f.Write(1, fillPage('b'))
	seal(t, f)
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
// synced log record out from under a live FileDisk: the disk never reads
// its log back, so it keeps working, and the next open must not replay the
// corrupt record — its CRC ends the recovered log there, typed as
// discarded bytes, without poisoning anything.
func TestFileDiskChecksumCatchesWALCorruption(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	logged(t, f, "intact")
	at := f.WALSize()
	logged(t, f, "flipped")

	wal, err := os.OpenFile(path+WALSuffix, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteAt([]byte{'F'}, at+walLogicalHeader); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	logged(t, f, "after")
	end := f.WALSize()
	if f.Poisoned() != nil {
		t.Fatal("media corruption must not poison the disk (fsync never failed)")
	}
	f.Close()

	re := mustOpenFD(t, path)
	defer re.Close()
	requireLog(t, "corrupt record", re, "intact")
	if st := re.DeviceStats(); st.WALBytesDiscarded != end-at || st.RecoveredCommits != 1 {
		t.Fatalf("discarded %d bytes, recovered %d; want %d and 1", st.WALBytesDiscarded, st.RecoveredCommits, end-at)
	}
}

// TestFileDiskRejectsOldFormat: a file whose superblocks are stamped with
// any storage version but the current one, or with another page size, is
// refused with ErrFormatVersion — not read with misaligned offsets or a
// free list it cannot parse — and the refused open changes no byte of the
// database file or its WAL.
func TestFileDiskRejectsOldFormat(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int // superblock field to restamp
		val  uint32
	}{
		{"v1", 8, 1},
		{"v2", 8, 2},
		{"v3", 8, 3},
		{"v4", 8, 4},
		{"v6", 8, 6},
		{"page size 4096", 12, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpDB(t)
			f := mustOpenFD(t, path)
			allocate(f, 1)
			f.Write(0, fillPage('a'))
			seal(t, f)
			logged(t, f, "b") // a record left in the WAL
			f.Close()

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(raw[tc.off:], tc.val)
			binary.BigEndian.PutUint32(raw[superblockSlot+tc.off:], tc.val)
			sealSuperblock(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			wal, err := os.ReadFile(path + WALSuffix)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := OpenFileDisk(path); !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("open: got %v, want ErrFormatVersion", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, raw) {
				t.Fatal("the refused open changed the database file")
			}
			if got, _ := os.ReadFile(path + WALSuffix); !bytes.Equal(got, wal) {
				t.Fatal("the refused open changed the WAL")
			}
		})
	}
}

// TestFileDiskRejectsImpossibleMeta: recovery trusts no metadata that
// cannot describe a database — a negative page count, or a catalog root or
// free-list head that is neither InvalidPage nor a page below the count. A
// lone superblock carrying one (checksum intact) fails the open with
// ErrCorruptPage, as a bad magic, a checksum mismatch and a short
// superblock do; a newer superblock carrying one — a sync point's commit —
// is passed over for the older, as one with a bad CRC is.
func TestFileDiskRejectsImpossibleMeta(t *testing.T) {
	impossible := []Meta{
		{NumPages: -3, CatalogRoot: 77, FreeHead: InvalidPage},
		{NumPages: -1, CatalogRoot: InvalidPage, FreeHead: InvalidPage},
		{NumPages: 4, CatalogRoot: 4, FreeHead: InvalidPage},
		{NumPages: 4, CatalogRoot: -2, FreeHead: InvalidPage},
		{NumPages: 4, CatalogRoot: 0, FreeHead: 9},
		{NumPages: 0, CatalogRoot: InvalidPage, FreeHead: 0},
	}
	valid := Meta{NumPages: 4, CatalogRoot: 0, FreeHead: InvalidPage}
	superblocks := map[string]func() File{
		"short": func() File {
			file := &memFile{}
			file.WriteAt([]byte(fileFormatMagic), 0)
			return file
		},
		"bad magic": func() File {
			file := craftedFile(t, valid, nil)
			file.WriteAt([]byte("X"), 3)
			return file
		},
		"checksum mismatch": func() File {
			file := craftedFile(t, valid, nil)
			file.WriteAt([]byte{0xFF}, 25)
			return file
		},
	}
	for _, m := range impossible {
		superblocks[fmt.Sprintf("%+v", m)] = func() File { return craftedFile(t, m, nil) }
	}
	for name, build := range superblocks {
		t.Run("superblock "+name, func(t *testing.T) {
			if _, err := OpenFiles(build(), &memFile{}); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("open: got %v, want ErrCorruptPage", err)
			}
		})
	}
	for _, m := range impossible {
		t.Run(fmt.Sprintf("commit %+v", m), func(t *testing.T) {
			file := craftedFile(t, valid, nil)
			if err := writeSuperblock(file, 1, 9, m); err != nil {
				t.Fatal(err)
			}
			re := openCrafted(t, file, &memFile{})
			if got := re.Meta(); got != valid || re.sealed != 0 {
				t.Fatalf("recovered Meta %+v at sequence %d, want %+v at 0", got, re.sealed, valid)
			}
		})
	}
}

// TestFileDiskCorruptInteriorFrame corrupts a record in the middle of a
// multi-commit WAL: recovery stops at the first bad record, keeps every
// commit before it, discards everything after (never a mix), and reports
// both facts through DeviceStats.
func TestFileDiskCorruptInteriorFrame(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	var ends []int64
	for i := 0; i < 3; i++ {
		logged(t, f, strings.Repeat(string(rune('a'+i)), 60))
		ends = append(ends, f.WALSize())
	}
	walTotal := f.WALSize()
	f.Close()

	// Corrupt the second record's payload.
	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	wal[ends[0]+walLogicalHeader+50] ^= 0x01
	if err := os.WriteFile(path+WALSuffix, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	requireLog(t, "interior corruption", re, strings.Repeat("a", 60))
	st := re.DeviceStats()
	if st.RecoveredCommits != 1 {
		t.Fatalf("RecoveredCommits = %d, want 1", st.RecoveredCommits)
	}
	if want := walTotal - ends[0]; st.WALBytesDiscarded != want {
		t.Fatalf("WALBytesDiscarded = %d, want %d", st.WALBytesDiscarded, want)
	}
	// The database stays writable after discarding the corrupt suffix.
	logged(t, re, "z")
	seal(t, re)
}

// TestFileDiskRecoveryCounters: a clean multi-commit WAL reports its commit
// count and zero discarded bytes on reopen.
func TestFileDiskRecoveryCounters(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	for i := 0; i < 3; i++ {
		logged(t, f, string(rune('a'+i)))
	}
	f.Close()
	re := mustOpenFD(t, path)
	defer re.Close()
	st := re.DeviceStats()
	if st.RecoveredCommits != 3 || st.WALBytesDiscarded != 0 {
		t.Fatalf("RecoveredCommits=%d WALBytesDiscarded=%d, want 3/0", st.RecoveredCommits, st.WALBytesDiscarded)
	}
}

// FuzzOpenFileDisk opens a FileDisk over a fuzzed header (both superblock
// slots) and a fuzzed WAL. With reseal set the harness first re-seals the
// checksum of each superblock slot and the CRC of every whole WAL record,
// so inputs get past the checksums to the checks behind them. Open must
// not panic. It either fails with an error matching ErrFormatVersion or
// ErrCorruptPage, or yields a disk whose Meta is possible (Meta.valid),
// whose Allocate returns a page Read accepts (InvalidPage only once every
// page id is in use), and whose next seal reopens to the same Meta and page
// image with nothing left to replay.
func FuzzOpenFileDisk(f *testing.F) {
	f.Fuzz(func(t *testing.T, sb, log []byte, reseal bool) {
		sb = slices.Clone(sb[:min(len(sb), superblockSize)])
		log = slices.Clone(log)
		if reseal {
			sealSuperblock(sb)
			resealWAL(log)
		}
		file, wal := &memFile{}, &memFile{}
		file.WriteAt(sb, 0)
		wal.WriteAt(log, 0)
		d, err := OpenFiles(file, wal)
		if err != nil {
			if !errors.Is(err, ErrFormatVersion) && !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		meta := d.Meta()
		if !meta.valid() {
			t.Fatalf("opened with impossible Meta %+v", meta)
		}
		id := d.Allocate()
		if id == InvalidPage {
			if d.NumPages() < math.MaxInt32 {
				t.Fatalf("Allocate refused with %d pages", d.NumPages())
			}
			return
		}
		if id < 0 {
			t.Fatalf("Allocate returned page %d", id)
		}
		buf := make([]byte, PageSize)
		if err := d.Read(id, buf); err != nil {
			t.Fatalf("read of allocated page %d: %v", id, err)
		}
		if err := d.Write(id, fillPage('f')); err != nil {
			t.Fatal(err)
		}
		if err := d.Seal(meta.CatalogRoot, nil); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFiles(file, wal)
		if err != nil {
			t.Fatalf("reopen after a seal: %v", err)
		}
		if got, want := re.Meta(), d.Meta(); got != want {
			t.Fatalf("reopened Meta %+v, sealed %+v", got, want)
		}
		if n := len(re.TakeRecoveredLog()); n != 0 {
			t.Fatalf("%d records to replay after a seal", n)
		}
		if err := re.Read(id, buf); err != nil || !bytes.Equal(buf, fillPage('f')) {
			t.Fatalf("sealed page %d did not survive the reopen (err %v)", id, err)
		}
	})
}

// sealSuperblock recomputes the checksum of each whole superblock slot in
// sb.
func sealSuperblock(sb []byte) {
	for off := 0; off+superblockUsed <= len(sb) && off <= superblockSlot; off += superblockSlot {
		slot := sb[off : off+superblockUsed]
		binary.BigEndian.PutUint32(slot[superblockUsed-4:], crc32.ChecksumIEEE(slot[:superblockUsed-4]))
	}
}

// resealWAL recomputes the CRC of every whole record at the head of log,
// stopping at the first unknown type or partial record.
func resealWAL(log []byte) {
	for off := 0; off+walLogicalHeader <= len(log) && log[off] == walRecLogical; {
		n := walLogicalHeader + int(binary.BigEndian.Uint32(log[off+9:])) + 4
		if n < 0 || off+n > len(log) {
			return
		}
		rec := log[off : off+n]
		binary.BigEndian.PutUint32(rec[n-4:], crc32.ChecksumIEEE(rec[:n-4]))
		off += n
	}
}
