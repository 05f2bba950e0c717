package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFileDiskFreeReuse: freed pages come back from Allocate (LIFO) before
// the file grows, the counters record both sides, and neither side touches
// the device — Free appends nothing to the WAL, Allocate reads nothing.
func TestFileDiskFreeReuse(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	allocate(f, 4)
	for i := 0; i < 4; i++ {
		if err := f.Write(PageID(i), fillPage(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	before := f.DeviceStats()
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(2); err != nil {
		t.Fatal(err)
	}
	if st := f.DeviceStats(); st.WALAppends != before.WALAppends || st.BytesWritten != before.BytesWritten {
		t.Fatalf("Free wrote to the device: %d appends, %d bytes", st.WALAppends-before.WALAppends, st.BytesWritten-before.BytesWritten)
	}
	if err := f.Commit(Meta{NumPages: 4, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	// One trunk frame (page 1, listing 2) and the commit record.
	if st := f.DeviceStats(); st.WALAppends-before.WALAppends != 2 {
		t.Fatalf("commit of two frees appended %d records, want 2", st.WALAppends-before.WALAppends)
	}
	if got := len(f.FreeList()); got != 2 {
		t.Fatalf("free pages = %d, want 2", got)
	}
	before = f.DeviceStats()
	// LIFO: the last free is the first reuse.
	if got := f.Allocate(); got != 2 {
		t.Fatalf("first reuse = %d, want 2", got)
	}
	if got := f.Allocate(); got != 1 {
		t.Fatalf("second reuse = %d, want 1", got)
	}
	if st := f.DeviceStats(); st.Reads != before.Reads || st.BytesRead != before.BytesRead {
		t.Fatalf("Allocate read from the device: %d reads, %d bytes", st.Reads-before.Reads, st.BytesRead-before.BytesRead)
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
// without disturbing the list.
func TestFileDiskFreeErrors(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	allocate(f, 2)
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

// TestFileDiskFreeListRecovery: the committed free list survives a crash
// (WAL-only) and a checkpoint (superblock FreeHead + file images), while an
// uncommitted free rolls back.
func TestFileDiskFreeListRecovery(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 5)
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
		t.Fatalf("recovered first pop = %d, want 3", got)
	}
	if got := re.Allocate(); got != 1 {
		t.Fatalf("recovered second pop = %d, want 1", got)
	}
	// Re-free, commit, checkpoint: the list must now live in the database
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
	if got := re2.Meta().FreeHead; got != 3 {
		t.Fatalf("superblock FreeHead = %d, want head trunk 3", got)
	}
	if got := len(re2.FreeList()); got != 2 {
		t.Fatalf("free pages from the superblock's trunk = %d, want 2", got)
	}
	if st := re2.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("valid list counted a reset: %+v", st)
	}
}

// TestFileDiskFreeListTwoTrunks: more frees in one commit than a trunk can
// list spill into a second trunk, both ride that commit, and the list
// recovers intact. Draining across the trunk boundary hands out every
// freed page, trunk pages included, exactly once and in LIFO order; a
// partial drain committed across the boundary recovers to the remainder.
func TestFileDiskFreeListTwoTrunks(t *testing.T) {
	const n = PageID(trunkCapacity + 10)
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, int(n))
	meta := Meta{NumPages: int32(n), CatalogRoot: InvalidPage, FreeHead: InvalidPage}
	if err := f.Commit(meta); err != nil {
		t.Fatal(err)
	}
	var freed []PageID // every page but 0, in free order
	for id := PageID(1); id < n; id++ {
		if err := f.Free(id); err != nil {
			t.Fatal(err)
		}
		freed = append(freed, id)
	}
	before := f.DeviceStats()
	if err := f.Commit(meta); err != nil {
		t.Fatal(err)
	}
	// Page 1 is the first trunk (full at 2,044 ids); page 2,046 starts the
	// second, which is the head.
	if got := f.DeviceStats().WALAppends - before.WALAppends; got != 3 {
		t.Fatalf("commit of %d frees appended %d records, want 2 trunk frames + commit", len(freed), got)
	}
	if got, want := f.Meta().FreeHead, PageID(trunkCapacity+2); got != want {
		t.Fatalf("FreeHead = %d, want second trunk %d", got, want)
	}
	f.Close() // crash

	re := mustOpenFD(t, path)
	if st := re.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("two-trunk list reset at recovery: %+v", st)
	}
	if got := len(re.FreeList()); got != len(freed) {
		t.Fatalf("recovered %d free pages, want %d", got, len(freed))
	}
	// Drain past the head trunk (its 7 ids, then the trunk page itself)
	// and 5 ids into the first trunk; commit; crash.
	const partial = 7 + 1 + 5
	for i := 0; i < partial; i++ {
		if got, want := re.Allocate(), freed[len(freed)-1-i]; got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	if err := re.Commit(meta); err != nil {
		t.Fatal(err)
	}
	re.Close()

	re2 := mustOpenFD(t, path)
	defer re2.Close()
	if st := re2.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("partially drained list reset at recovery: %+v", st)
	}
	rest := freed[:len(freed)-partial]
	got := re2.FreeList()
	slices.Sort(got)
	if !slices.Equal(got, rest) {
		t.Fatalf("recovered free set after partial drain: %d pages, want %d", len(got), len(rest))
	}
	handed := map[PageID]bool{}
	for i := range rest {
		id := re2.Allocate()
		if want := rest[len(rest)-1-i]; id != want {
			t.Fatalf("drain pop %d = %d, want %d", i, id, want)
		}
		if handed[id] {
			t.Fatalf("page %d handed out twice", id)
		}
		handed[id] = true
	}
	if !handed[1] {
		t.Fatal("the first trunk's own page was never handed out")
	}
	if got := re2.Allocate(); got != n {
		t.Fatalf("allocation after the drain = %d, want tail page %d", got, n)
	}
}

// TestFileDiskFreeListCorruptTrunks: a free list that fails validation is
// abandoned whole at recovery (leaking is safe, double allocation is not):
// FreeListResets counts it and allocation falls back to the tail. The base
// image is valid — pages 0–3 live (0 the catalog root), head trunk 4
// listing 6 over trunk 5 listing 7 — and each case damages one trunk.
func TestFileDiskFreeListCorruptTrunks(t *testing.T) {
	const n = 8
	meta := Meta{NumPages: n, CatalogRoot: 0, FreeHead: 4}
	base := func() map[PageID][]byte {
		return map[PageID][]byte{
			0: fillPage('c'), 1: fillPage('a'), 2: fillPage('b'), 3: fillPage('d'),
			4: trunkPage(5, 6), 5: trunkPage(InvalidPage, 7),
		}
	}
	overCount := trunkPage(5, 6)
	binary.BigEndian.PutUint32(overCount[len(trunkMagic)+4:], uint32(trunkCapacity+1))
	v2Link := make([]byte, PageSize) // a version-2 free page ending its chain
	copy(v2Link, "TWIGFREE\xff\xff\xff\xff")
	cases := []struct {
		name string
		page PageID
		img  []byte
	}{
		{"bad marker", 4, fillPage('X')},
		{"count above capacity", 4, overCount},
		{"listed id out of range", 4, trunkPage(5, 6, 99)},
		{"next trunk out of range", 5, trunkPage(99, 7)},
		{"id repeated across trunks", 5, trunkPage(InvalidPage, 7, 6)},
		{"trunk cycle", 5, trunkPage(4, 7)},
		{"catalog root listed", 4, trunkPage(5, 6, 0)},
		{"version-2 link in a trunk list", 5, v2Link},
	}
	valid := craftedDisk(t, meta, base())
	if st := valid.DeviceStats(); st.FreeListResets != 0 || len(valid.FreeList()) != 4 {
		t.Fatalf("base image: %d free pages, %d resets; want 4, 0", len(valid.FreeList()), st.FreeListResets)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pages := base()
			pages[tc.page] = tc.img
			re := craftedDisk(t, meta, pages)
			if st := re.DeviceStats(); st.FreeListResets != 1 {
				t.Fatalf("FreeListResets = %d, want 1", st.FreeListResets)
			}
			if got := len(re.FreeList()); got != 0 {
				t.Fatalf("corrupt list kept %d entries", got)
			}
			if got := re.Allocate(); got != n {
				t.Fatalf("allocation after reset = %d, want tail page %d", got, n)
			}
		})
	}
	// A trunk whose slot fails its checksum is unreadable: same outcome.
	file := craftedFile(t, meta, base())
	if _, err := file.WriteAt([]byte{0xFF}, slotOff(5)+100); err != nil {
		t.Fatal(err)
	}
	re := openCrafted(t, file, &memFile{})
	if st := re.DeviceStats(); st.FreeListResets != 1 || len(re.FreeList()) != 0 {
		t.Fatalf("unreadable trunk: %d resets, %d free pages; want 1, 0", st.FreeListResets, len(re.FreeList()))
	}
}

// TestFileDiskCompact: an all-free suffix is trimmed off the file, the
// surviving free pages are re-listed ascending, and the shrink is durable.
func TestFileDiskCompact(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 8)
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
// open transaction — with pending frames, or with uncommitted frees (which
// append nothing until their commit), it is a no-op.
func TestFileDiskCompactSkipsPending(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	defer f.Close()
	allocate(f, 3)
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
	f.Commit(Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage})
	// Open transaction: one uncommitted free of the new tail page.
	f.Free(1)
	if trimmed, err := f.Compact(); err != nil || trimmed != 0 {
		t.Fatalf("Compact under an uncommitted free: trimmed %d, err %v", trimmed, err)
	}
}

// TestFaultDiskFree: an injected write fault on the trunk frame a commit
// appends fails that commit cleanly with a typed error. Whether the process
// then crashes or retries, the freed page is neither lost nor handed out
// twice: after a crash the free never happened (the page is live, with its
// image); after a successful retry it comes back from the list exactly once.
func TestFaultDiskFree(t *testing.T) {
	for _, retry := range []bool{false, true} {
		path := tmpDB(t)
		d := mustOpenFD(t, path)
		inj := NewFaultInjector(1, FaultSpec{Kind: FaultWriteErr, After: 0})
		d.SetFaultInjector(inj)
		inj.Disarm() // un-faulted setup; armed right before the commit under test
		allocate(d, 2)
		if err := d.Write(0, fillPage('a')); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(1, fillPage('b')); err != nil {
			t.Fatal(err)
		}
		meta := Meta{NumPages: 2, CatalogRoot: InvalidPage, FreeHead: InvalidPage}
		if err := d.Commit(meta); err != nil {
			t.Fatal(err)
		}
		if err := d.Free(1); err != nil {
			t.Fatal(err)
		}
		inj.Arm()
		walBefore := d.WALSize()
		err := d.Commit(meta)
		if err == nil {
			t.Fatal("injected write fault did not fail the commit")
		}
		if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "trunk 1") {
			t.Fatalf("commit fault not an ErrInjected trunk append: %v", err)
		}
		if got := d.WALSize(); got != walBefore {
			t.Fatalf("failed trunk append advanced the WAL %d -> %d", walBefore, got)
		}
		if retry {
			// The one-shot rule is exhausted: the retry carries the free.
			if err := d.Commit(meta); err != nil {
				t.Fatal(err)
			}
		}
		d.Close()

		re := mustOpenFD(t, path)
		if retry {
			assertFreeSet(t, re, 1)
			if got := re.Allocate(); got != 1 {
				t.Fatalf("reuse after the retried commit = %d, want 1", got)
			}
		} else {
			assertFreeSet(t, re)
			buf := make([]byte, PageSize)
			if err := re.Read(1, buf); err != nil || !bytes.Equal(buf, fillPage('b')) {
				t.Fatalf("page 1 lost after the failed commit (err %v)", err)
			}
		}
		if got := re.Allocate(); got != 2 {
			t.Fatalf("retry=%v: allocation = %d, want tail page 2", retry, got)
		}
		re.Close()
	}
}

// FuzzRecoverFreeList opens a database file whose head trunk (page 1)
// holds the fuzzed bytes, over a valid second trunk (page 2 listing 3 and
// 4); page 0 is the catalog root, and page 5 holds data nothing names (to
// the device, a leaked page). Recovery must not panic, and must either
// abandon the list (FreeListResets, tail allocation) — always, when the
// head lacks the trunk marker, as a version-2 free page does — or keep one
// that survives a commit and reopen unchanged and drains without ever
// handing out the catalog root, an out-of-range page or a page twice.
func FuzzRecoverFreeList(f *testing.F) {
	const n = 6
	meta := Meta{NumPages: n, CatalogRoot: 0, FreeHead: 1}
	f.Fuzz(func(t *testing.T, head []byte) {
		img := make([]byte, PageSize)
		copy(img, head)
		file := craftedFile(t, meta, map[PageID][]byte{
			0: fillPage('c'), 1: img, 2: trunkPage(InvalidPage, 3, 4), 5: fillPage('x'),
		})
		wal := &memFile{}
		d := openCrafted(t, file, wal)
		free := d.FreeList()
		slices.Sort(free)
		reset := d.DeviceStats().FreeListResets != 0
		if !reset && !bytes.HasPrefix(img, []byte(trunkMagic)) {
			t.Fatalf("a head without the trunk marker was kept: free set %v", free)
		}
		if reset {
			if len(free) != 0 {
				t.Fatalf("reset list kept %d entries", len(free))
			}
			if got := d.Allocate(); got != n {
				t.Fatalf("allocation after reset = %d, want tail page %d", got, n)
			}
			return
		}
		// Pop one page and free it again, so the commit rewrites the head.
		if err := d.Free(d.Allocate()); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(meta); err != nil {
			t.Fatal(err)
		}
		re := openCrafted(t, file, wal)
		if st := re.DeviceStats(); st.FreeListResets != 0 {
			t.Fatalf("committed list reset on reopen: %+v", st)
		}
		again := re.FreeList()
		slices.Sort(again)
		if !slices.Equal(free, again) {
			t.Fatalf("free set %v reopened as %v", free, again)
		}
		handed := map[PageID]bool{}
		for range free {
			id := re.Allocate()
			if id <= 0 || id >= n || handed[id] {
				t.Fatalf("handed out page %d (free set %v, handed %v)", id, free, handed)
			}
			handed[id] = true
		}
		if got := re.Allocate(); got != n {
			t.Fatalf("allocation after the drain = %d, want tail page %d", got, n)
		}
	})
}

// trunkPage renders a trunk image listing ids, chaining to next.
func trunkPage(next PageID, ids ...PageID) []byte {
	img := make([]byte, PageSize)
	trunkStack{{id: next}, {ids: ids}}.render(1, img)
	return img
}

// craftedFile builds an in-memory database file: a superblock carrying
// meta, and a checksummed slot for each given page image (pages not given
// are holes and read as zeroes).
func craftedFile(t testing.TB, meta Meta, pages map[PageID][]byte) File {
	t.Helper()
	file := &memFile{}
	if err := writeSuperblock(file, meta); err != nil {
		t.Fatal(err)
	}
	for id, img := range pages {
		if _, err := file.WriteAt(append(slices.Clone(img), crcTrailer(img)...), slotOff(id)); err != nil {
			t.Fatal(err)
		}
	}
	return file
}

// openCrafted opens a FileDisk over file and wal without taking ownership:
// reopening the same files models a crash of the previous disk.
func openCrafted(t testing.TB, file, wal File) *FileDisk {
	t.Helper()
	d, err := openFileDisk(file, wal, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// craftedDisk opens a FileDisk over a craftedFile and an empty WAL.
func craftedDisk(t testing.TB, meta Meta, pages map[PageID][]byte) *FileDisk {
	t.Helper()
	return openCrafted(t, craftedFile(t, meta, pages), &memFile{})
}

// assertFreeSet fails unless d's free list holds exactly want.
func assertFreeSet(t *testing.T, d *FileDisk, want ...PageID) {
	t.Helper()
	got := d.FreeList()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("free set = %v, want %v", got, want)
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
