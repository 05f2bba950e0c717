package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"
)

// TestFileDiskFreeReuse: freed pages come back from Allocate (LIFO) before
// the file grows, and the counters record both sides.
func TestFileDiskFreeReuse(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	f.AllocateN(4)
	for i := 0; i < 4; i++ {
		if err := f.Write(PageID(i), fillPage(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	if got := len(f.FreeList()); got != 2 {
		t.Fatalf("free pages = %d, want 2", got)
	}
	// LIFO: the last free is the first reuse.
	if got := f.Allocate(); got != 2 {
		t.Fatalf("first reuse = %d, want 2", got)
	}
	if got := f.Allocate(); got != 1 {
		t.Fatalf("second reuse = %d, want 1", got)
	}
	// List drained: next allocation grows the page array.
	if got := f.Allocate(); got != 4 {
		t.Fatalf("tail allocation = %d, want 4", got)
	}
	st := f.DeviceStats()
	if st.PagesFreed != 2 || st.PagesReused != 2 {
		t.Fatalf("PagesFreed=%d PagesReused=%d, want 2/2", st.PagesFreed, st.PagesReused)
	}
	// The untouched pages kept their images through the free traffic.
	buf := make([]byte, PageSize)
	for _, pg := range []PageID{0, 3} {
		if err := f.Read(pg, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(byte('a'+pg))) {
			t.Fatalf("page %d image damaged by free-list traffic", pg)
		}
	}
}

// TestFileDiskFreeErrors: double frees and out-of-range frees are rejected
// without disturbing the chain.
func TestFileDiskFreeErrors(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	f.AllocateN(2)
	f.Write(0, fillPage('a'))
	f.Write(1, fillPage('b'))
	if err := f.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(1); err == nil {
		t.Fatal("double free succeeded")
	}
	if err := f.Free(99); err == nil {
		t.Fatal("free of unallocated page succeeded")
	}
	if got := len(f.FreeList()); got != 1 {
		t.Fatalf("free pages = %d after rejected frees, want 1", got)
	}
	if got := f.Allocate(); got != 1 {
		t.Fatalf("reuse after rejected frees = %d, want 1", got)
	}
}

// TestFileDiskFreeListRecovery: the committed free chain survives a crash
// (WAL-only) and a checkpoint (superblock FreeHead + file images), while an
// uncommitted free rolls back.
func TestFileDiskFreeListRecovery(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(5)
	for i := 0; i < 5; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	if err := f.Commit(Meta{NumPages: 5, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	f.Free(1)
	f.Free(3)
	if err := f.Commit(Meta{NumPages: 5, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	// Uncommitted free: must vanish on reopen.
	f.Free(0)
	f.Close() // crash

	re := mustOpenFD(t, path)
	if got := len(re.FreeList()); got != 2 {
		t.Fatalf("recovered free pages = %d, want 2 (uncommitted free kept?)", got)
	}
	if got := re.Allocate(); got != 3 {
		t.Fatalf("recovered head = %d, want 3", got)
	}
	if got := re.Allocate(); got != 1 {
		t.Fatalf("recovered chain second pop = %d, want 1", got)
	}
	// Re-free, commit, checkpoint: the chain must now live in the database
	// file and recover from the superblock alone.
	re.Free(3)
	re.Free(1)
	if err := re.Commit(Meta{NumPages: 5, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Close()

	re2 := mustOpenFD(t, path)
	defer re2.Close()
	if got := re2.WALSize(); got != 0 {
		t.Fatalf("WAL not empty after checkpointed close: %d bytes", got)
	}
	if got := re2.Meta().FreeHead; got != 1 {
		t.Fatalf("superblock FreeHead = %d, want 1", got)
	}
	if got := len(re2.FreeList()); got != 2 {
		t.Fatalf("free pages from superblock chain = %d, want 2", got)
	}
	if st := re2.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("valid chain counted a reset: %+v", st)
	}
}

// TestFileDiskFreeListCorruptChain: a free page image that lost its marker
// abandons the whole chain at recovery (leaking is safe, double-allocation
// is not) — FreeListResets counts it and allocation falls back to the tail.
func TestFileDiskFreeListCorruptChain(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(4)
	for i := 0; i < 4; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	f.Free(1)
	f.Free(2)
	f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Overwrite page 2's slot (the head) with a non-free image and fix up
	// its CRC so only the free-marker validation can object.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img := fillPage('X')
	copy(raw[slotOff(2):], img)
	copy(raw[slotOff(2)+PageSize:], crcTrailer(img))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	if st := re.DeviceStats(); st.FreeListResets != 1 {
		t.Fatalf("FreeListResets = %d, want 1", st.FreeListResets)
	}
	if got := len(re.FreeList()); got != 0 {
		t.Fatalf("corrupt chain kept %d entries", got)
	}
	// Fallback: tail allocation, never a page from the abandoned chain.
	if got := re.Allocate(); got != 4 {
		t.Fatalf("allocation after reset = %d, want tail page 4", got)
	}
}

// TestFileDiskFreeListCycleReset: a chain whose links form a cycle must be
// abandoned, not walked forever.
func TestFileDiskFreeListCycleReset(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(3)
	for i := 0; i < 3; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	f.Commit(Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	f.Free(1)
	f.Free(2) // chain: 2 -> 1 -> end
	f.Commit(Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Rewrite page 1's image to point back at 2: 2 -> 1 -> 2 -> ...
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, PageSize)
	freePageImage(img, 2)
	copy(raw[slotOff(1):], img)
	copy(raw[slotOff(1)+PageSize:], crcTrailer(img))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpenFD(t, path)
	defer re.Close()
	if st := re.DeviceStats(); st.FreeListResets != 1 {
		t.Fatalf("FreeListResets = %d, want 1", st.FreeListResets)
	}
	if got := re.Allocate(); got != 3 {
		t.Fatalf("allocation after cycle reset = %d, want 3", got)
	}
}

// TestFileDiskCompact: an all-free suffix is trimmed off the file, the
// surviving free pages are re-chained ascending, and the shrink is durable.
func TestFileDiskCompact(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	f.AllocateN(8)
	for i := 0; i < 8; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	f.Commit(Meta{NumPages: 8, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)
	// Free an interior page and the whole tail half.
	for _, pg := range []PageID{2, 7, 5, 6, 4} {
		if err := f.Free(pg); err != nil {
			t.Fatal(err)
		}
	}
	f.Commit(Meta{NumPages: 8, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	trimmed, err := f.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 4 {
		t.Fatalf("Compact trimmed %d pages, want 4 (pages 4..7)", trimmed)
	}
	if got := f.NumPages(); got != 4 {
		t.Fatalf("NumPages after compact = %d, want 4", got)
	}
	if got := len(f.FreeList()); got != 1 {
		t.Fatalf("free pages after compact = %d, want 1 (page 2)", got)
	}
	if got := fileSize(t, path); got >= sizeBefore {
		t.Fatalf("file did not shrink: %d -> %d bytes", sizeBefore, got)
	}
	// The surviving free page is reusable; then allocation grows from the
	// new, smaller tail.
	if got := f.Allocate(); got != 2 {
		t.Fatalf("post-compact reuse = %d, want 2", got)
	}
	if got := f.Allocate(); got != 4 {
		t.Fatalf("post-compact tail allocation = %d, want 4", got)
	}
	f.Close()

	// The shrink was committed through the WAL before the truncate: a
	// reopen agrees with it (allocations above were uncommitted and vanish).
	re := mustOpenFD(t, path)
	defer re.Close()
	if got := re.NumPages(); got != 4 {
		t.Fatalf("reopened NumPages = %d, want 4", got)
	}
	buf := make([]byte, PageSize)
	for _, pg := range []PageID{0, 1, 3} {
		if err := re.Read(pg, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(byte('a'+pg))) {
			t.Fatalf("live page %d damaged by compact", pg)
		}
	}
	if got := len(re.FreeList()); got != 1 {
		t.Fatalf("reopened free pages = %d, want 1", got)
	}
}

// TestFileDiskCompactSkipsPending: Compact must not seal someone else's
// open transaction — with pending frames it is a no-op.
func TestFileDiskCompactSkipsPending(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	f.AllocateN(3)
	for i := 0; i < 3; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	f.Commit(Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	f.Free(2)
	f.Commit(Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	// Open transaction: one uncommitted frame.
	if err := f.Write(0, fillPage('z')); err != nil {
		t.Fatal(err)
	}
	trimmed, err := f.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if trimmed != 0 {
		t.Fatalf("Compact trimmed %d pages under an open transaction", trimmed)
	}
	if got := f.NumPages(); got != 3 {
		t.Fatalf("NumPages changed to %d under an open transaction", got)
	}
}

// TestFaultDiskFree: injected write faults on Free fail cleanly with a
// typed error and leave the chain consistent — the page is not freed, so a
// later allocation can never hand it out twice.
func TestFaultDiskFree(t *testing.T) {
	path := tmpDB(t)
	d := mustOpenFD(t, path)
	inj := NewFaultInjector(1, FaultSpec{Kind: FaultWriteErr, After: 0})
	d.SetFaultInjector(inj)
	defer d.Close()
	inj.Disarm() // un-faulted setup; armed right before the Free under test
	d.AllocateN(2)
	if err := d.Write(0, fillPage('a')); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(1, fillPage('b')); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	err := d.Free(1)
	if err == nil {
		t.Fatal("injected write fault did not fail Free")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Free fault not ErrInjected: %v", err)
	}
	if got := len(d.FreeList()); got != 0 {
		t.Fatalf("failed Free left %d chain entries", got)
	}
	// The one-shot rule is exhausted: the retry succeeds and the page comes
	// back exactly once.
	if err := d.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := d.Allocate(); got != 1 {
		t.Fatalf("reuse after recovered Free = %d, want 1", got)
	}
	if got := d.Allocate(); got != 2 {
		t.Fatalf("chain not drained after single free/alloc: got %d, want tail page 2", got)
	}
}

// crcTrailer renders the 4-byte CRC trailer for a page image.
func crcTrailer(img []byte) []byte {
	tr := make([]byte, pageTrailerSize)
	binary.BigEndian.PutUint32(tr, crc32.ChecksumIEEE(img))
	return tr
}

// fileSize returns the current length of the database file.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
