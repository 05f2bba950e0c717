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

// TestFileDiskFreeReuse: a freed page the sealed state reaches is held
// back from reuse until the next seal, while one allocated since comes
// back from Allocate at once (LIFO); neither side touches the device —
// Free writes nothing, Allocate reads nothing — and after the seal the
// held pages come back lowest first, before the file grows.
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
	seal(t, f)
	before := f.DeviceStats()
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(2); err != nil {
		t.Fatal(err)
	}
	if st := f.DeviceStats(); st.Writes != before.Writes || st.BytesWritten != before.BytesWritten {
		t.Fatalf("Free wrote to the device: %d writes, %d bytes", st.Writes-before.Writes, st.BytesWritten-before.BytesWritten)
	}
	// Held: the next allocation grows the file; freeing that one makes it
	// reusable at once.
	if got := f.Allocate(); got != 4 {
		t.Fatalf("allocation beside held pages = %d, want tail page 4", got)
	}
	if err := f.Free(4); err != nil {
		t.Fatal(err)
	}
	if got := f.Allocate(); got != 4 {
		t.Fatalf("reuse of a page allocated since the seal = %d, want 4", got)
	}
	if err := f.Free(4); err != nil {
		t.Fatal(err)
	}
	before = f.DeviceStats()
	seal(t, f)
	// One trunk, on the reusable page 4, listing the held 1 and 2.
	if st := f.DeviceStats(); st.Writes-before.Writes != 1 || st.WALAppends != before.WALAppends {
		t.Fatalf("the seal wrote %d pages and %d records, want one trunk", st.Writes-before.Writes, st.WALAppends-before.WALAppends)
	}
	if got := f.Meta().FreeHead; got != 4 {
		t.Fatalf("FreeHead = %d, want trunk 4", got)
	}
	if got := len(f.FreeList()); got != 3 {
		t.Fatalf("free pages = %d, want 3 (two listed, one trunk)", got)
	}
	before = f.DeviceStats()
	if got := f.Allocate(); got != 1 {
		t.Fatalf("first reuse = %d, want 1", got)
	}
	if got := f.Allocate(); got != 2 {
		t.Fatalf("second reuse = %d, want 2", got)
	}
	if st := f.DeviceStats(); st.Reads != before.Reads || st.BytesRead != before.BytesRead {
		t.Fatalf("Allocate read from the device: %d reads, %d bytes", st.Reads-before.Reads, st.BytesRead-before.BytesRead)
	}
	// List drained (the trunk is held until the next seal): next
	// allocation grows the page array.
	if got := f.Allocate(); got != 5 {
		t.Fatalf("tail allocation = %d, want 5", got)
	}
	st := f.DeviceStats()
	if st.PagesFreed != 4 || st.PagesReused != 3 {
		t.Fatalf("PagesFreed=%d PagesReused=%d, want 4/3", st.PagesFreed, st.PagesReused)
	}
	// The untouched pages kept their images through the free traffic.
	requirePage(t, "after the free traffic", f, 0, 'a')
	requirePage(t, "after the free traffic", f, 3, 'd')
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
	seal(t, f)
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
	if got := f.Allocate(); got != 2 {
		t.Fatalf("allocation beside the held page = %d, want tail page 2", got)
	}
}

// TestFileDiskFreeListRecovery: the sealed free list survives a crash,
// while a free since the seal rolls back; the list the next seal writes
// recovers from the superblock alone.
func TestFileDiskFreeListRecovery(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 5)
	for i := 0; i < 5; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	seal(t, f)
	f.Free(1)
	f.Free(3)
	seal(t, f) // the trunk goes past the end: page 5
	// Unsealed free: must vanish on reopen.
	f.Free(0)
	f.Close() // crash

	re := mustOpenFD(t, path)
	assertFreeSet(t, re, 1, 3, 5)
	if got := re.Allocate(); got != 1 {
		t.Fatalf("recovered first pop = %d, want 1", got)
	}
	if got := re.Allocate(); got != 3 {
		t.Fatalf("recovered second pop = %d, want 3", got)
	}
	// Re-free and seal: the sealed trunk 5 is trimmed off the tail, the
	// list lands on page 1 and lists 3.
	re.Free(3)
	re.Free(1)
	seal(t, re)
	re.Close()

	re2 := mustOpenFD(t, path)
	defer re2.Close()
	if got := re2.WALSize(); got != 0 {
		t.Fatalf("WAL not empty after a seal: %d bytes", got)
	}
	if got := re2.Meta().FreeHead; got != 1 {
		t.Fatalf("superblock FreeHead = %d, want trunk 1", got)
	}
	assertFreeSet(t, re2, 1, 3)
	if re2.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", re2.NumPages())
	}
	if st := re2.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("valid list counted a reset: %+v", st)
	}
}

// TestFileDiskFreeListTwoTrunks: more free pages than a trunk can list
// spill into a second trunk, and the list recovers intact. Draining across
// the trunk boundary hands out every listed page exactly once, lowest
// first; a partial drain sealed across the boundary recovers to the
// remainder.
func TestFileDiskFreeListTwoTrunks(t *testing.T) {
	const n = PageID(trunkCapacity + 10)
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, int(n))
	seal(t, f)
	var freed []PageID // every page but the first and the last
	for id := PageID(1); id < n-1; id++ {
		if err := f.Free(id); err != nil {
			t.Fatal(err)
		}
		freed = append(freed, id)
	}
	before := f.DeviceStats()
	seal(t, f)
	// Every freed page is held, so both trunks go past the end.
	if got := f.DeviceStats().Writes - before.Writes; got != 2 {
		t.Fatalf("sealing %d frees wrote %d pages, want 2 trunks", len(freed), got)
	}
	if got := f.Meta().FreeHead; got != n {
		t.Fatalf("FreeHead = %d, want first trunk %d", got, n)
	}
	f.Close() // crash

	re := mustOpenFD(t, path)
	if st := re.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("two-trunk list reset at recovery: %+v", st)
	}
	assertFreeSet(t, re, append(slices.Clone(freed), n, n+1)...)
	// Drain past the first trunk's 2,044 ids and 5 into the second; seal;
	// crash.
	const partial = trunkCapacity + 5
	for i := 0; i < partial; i++ {
		if got, want := re.Allocate(), freed[i]; got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	seal(t, re)
	re.Close()

	re2 := mustOpenFD(t, path)
	defer re2.Close()
	if st := re2.DeviceStats(); st.FreeListResets != 0 {
		t.Fatalf("partially drained list reset at recovery: %+v", st)
	}
	// The remainder is listed, one of its pages carrying the list now; the
	// old trunks, freed by the seal, were the file's all-free tail.
	rest := freed[partial:]
	assertFreeSet(t, re2, rest...)
	if re2.NumPages() != int(n) {
		t.Fatalf("NumPages = %d, want %d with the old trunks trimmed", re2.NumPages(), n)
	}
	handed := map[PageID]bool{}
	for i := 0; i < len(rest)-1; i++ {
		id := re2.Allocate()
		if !slices.Contains(rest, id) || handed[id] {
			t.Fatalf("drain pop %d = %d (handed %v)", i, id, handed)
		}
		handed[id] = true
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

// TestFileDiskCompact: a seal trims an all-free suffix off the file once
// the free list has a reusable page to live on, and the shrink is durable.
func TestFileDiskCompact(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 8)
	for i := 0; i < 8; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	seal(t, f)
	sizeBefore := fileSize(t, path)
	// Free an interior page and the whole tail half.
	for _, pg := range []PageID{2, 7, 5, 6, 4} {
		if err := f.Free(pg); err != nil {
			t.Fatal(err)
		}
	}
	// Every free page is held: the list needs a trunk past the end, so
	// this seal cannot trim.
	seal(t, f)
	if got := f.NumPages(); got != 9 {
		t.Fatalf("NumPages after the first seal = %d, want 9", got)
	}
	// The next seal, after any change, lists page 2 on itself and trims
	// pages 4..8.
	f.Free(f.Allocate())
	seal(t, f)
	if got := f.NumPages(); got != 4 {
		t.Fatalf("NumPages after the trimming seal = %d, want 4", got)
	}
	assertFreeSet(t, f, 2)
	if got := fileSize(t, path); got >= sizeBefore {
		t.Fatalf("file did not shrink: %d -> %d bytes", sizeBefore, got)
	}
	// Page 2 carries the list until the next seal: allocation grows from
	// the new, smaller tail.
	if got := f.Allocate(); got != 4 {
		t.Fatalf("post-trim tail allocation = %d, want 4", got)
	}
	f.Close()

	// The shrink was sealed before the truncate: a reopen agrees with it
	// (the allocation above was not sealed and vanishes).
	re := mustOpenFD(t, path)
	defer re.Close()
	if got := re.NumPages(); got != 4 {
		t.Fatalf("reopened NumPages = %d, want 4", got)
	}
	for _, pg := range []PageID{0, 1, 3} {
		requirePage(t, "reopened", re, pg, byte('a'+pg))
	}
	assertFreeSet(t, re, 2)
}

// TestFileDiskCompactSkipsPending: a seal's trim stops at a page still
// allocated — here one a reader of an older version holds (retired): the
// sealed free list names it, so a crash frees it, but the file keeps it
// until its holder frees it, and the next seal trims it.
func TestFileDiskCompactSkipsPending(t *testing.T) {
	file, wal := &memFile{}, &memFile{}
	f := openCrafted(t, file, wal)
	allocate(f, 4)
	for i := 0; i < 4; i++ {
		f.Write(PageID(i), fillPage(byte('a'+i)))
	}
	seal(t, f)
	f.Free(1)
	if err := f.Seal(InvalidPage, []PageID{3}); err != nil {
		t.Fatal(err)
	}
	// Page 1 is held, so the list's trunk went past the end, to page 4.
	if got := f.NumPages(); got != 5 {
		t.Fatalf("NumPages = %d under a retired page, want 5", got)
	}
	assertFreeSet(t, f, 1, 4)
	crashed := openCrafted(t, file, wal)
	assertFreeSet(t, crashed, 1, 3, 4)
	// Its holder frees it: reusable at once (the sealed state does not
	// reach it), and the next seal trims it.
	if err := f.Free(3); err != nil {
		t.Fatal(err)
	}
	if got := f.Allocate(); got != 3 {
		t.Fatalf("reuse of the retired page = %d, want 3", got)
	}
	f.Free(3)
	seal(t, f) // trims pages 3 and 4, lists nothing on page 1
	if got := f.NumPages(); got != 3 {
		t.Fatalf("NumPages = %d after the retired page was freed, want 3", got)
	}
}

// TestFaultDiskFree: an injected write fault on the trunk a seal writes
// fails that seal cleanly with a typed error. Whether the process then
// crashes or retries, the freed page is neither lost nor handed out twice:
// after a crash the free never happened (the page is live, with its
// image); after a successful retry it comes back from the list exactly
// once.
func TestFaultDiskFree(t *testing.T) {
	for _, retry := range []bool{false, true} {
		path := tmpDB(t)
		d := mustOpenFD(t, path)
		inj := NewFaultInjector(1, FaultSpec{Kind: FaultWriteErr, After: 0})
		d.SetFaultInjector(inj)
		inj.Disarm() // un-faulted setup; armed right before the seal under test
		allocate(d, 3)
		for i := 0; i < 3; i++ {
			if err := d.Write(PageID(i), fillPage(byte('a'+i))); err != nil {
				t.Fatal(err)
			}
		}
		seal(t, d)
		if err := d.Free(1); err != nil {
			t.Fatal(err)
		}
		inj.Arm()
		metaBefore := d.Meta()
		err := d.Seal(InvalidPage, nil)
		if err == nil {
			t.Fatal("injected write fault did not fail the seal")
		}
		if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "page 3") {
			t.Fatalf("seal fault not an ErrInjected trunk write: %v", err)
		}
		if got := d.Meta(); got != metaBefore || d.NumPages() != 3 || d.Poisoned() != nil {
			t.Fatalf("failed seal moved the state: %+v, %d pages, poisoned %v", got, d.NumPages(), d.Poisoned())
		}
		if retry {
			// The one-shot rule is exhausted: the retry carries the free.
			seal(t, d)
		}
		d.Close()

		re := mustOpenFD(t, path)
		if retry {
			assertFreeSet(t, re, 1, 3)
			if got := re.Allocate(); got != 1 {
				t.Fatalf("reuse after the retried seal = %d, want 1", got)
			}
		} else {
			assertFreeSet(t, re)
			requirePage(t, "after the failed seal", re, 1, 'b')
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
// that survives a seal and reopen — no free page lost or gained, save for
// the file's all-free tail, which the seal trims — and drains without ever
// handing out the catalog root, an out-of-range page, a trunk or a page
// twice.
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
		// Pop one page and free it again, so the seal rewrites the list.
		popped := d.Allocate()
		if err := d.Free(popped); err != nil {
			t.Fatal(err)
		}
		if err := d.Seal(0, nil); err != nil {
			t.Fatal(err)
		}
		re := openCrafted(t, file, wal)
		if st := re.DeviceStats(); st.FreeListResets != 0 {
			t.Fatalf("sealed list reset on reopen: %+v", st)
		}
		// Every free page is still free, or was trimmed off the tail.
		again := re.FreeList()
		for _, id := range append(free, popped) {
			if !slices.Contains(again, id) && int(id) < re.NumPages() {
				t.Fatalf("free page %d lost: free set %v reopened as %v (%d pages)", id, free, again, re.NumPages())
			}
		}
		for _, id := range again {
			if !slices.Contains(free, id) && id != popped {
				t.Fatalf("page %d joined the free set %v on reopen", id, free)
			}
		}
		handed := map[PageID]bool{}
		tail := PageID(re.NumPages())
		for i := 0; i < len(again)-re.held; i++ {
			id := re.Allocate()
			if id <= 0 || id >= tail || handed[id] || !slices.Contains(again, id) {
				t.Fatalf("handed out page %d (free set %v, handed %v)", id, again, handed)
			}
			handed[id] = true
		}
		if got := re.Allocate(); got != tail {
			t.Fatalf("allocation after the drain = %d, want tail page %d", got, tail)
		}
	})
}

// trunkPage renders a trunk image listing ids, chaining to next.
func trunkPage(next PageID, ids ...PageID) []byte {
	img := make([]byte, PageSize)
	renderTrunk(img, next, ids)
	return img
}

// craftedFile builds an in-memory database file: a superblock carrying
// meta, and a checksummed slot for each given page image (pages not given
// are holes and read as zeroes).
func craftedFile(t testing.TB, meta Meta, pages map[PageID][]byte) File {
	t.Helper()
	file := &memFile{}
	if err := writeSuperblock(file, 0, 0, meta); err != nil {
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
	d, err := OpenFiles(file, wal)
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

// TestFileDiskSealDue: a seal comes due once the pages held back from
// reuse — what the file grows by until the next seal — pass a quarter of
// the sealed page count plus the slack, and the seal releases them.
func TestFileDiskSealDue(t *testing.T) {
	f := NewMemFileDisk()
	defer f.Close()
	const n = 2000
	allocate(f, n)
	seal(t, f)
	limit := PageID(n/heldShare + heldSlack)
	for id := PageID(0); id < limit; id++ {
		if err := f.Free(id); err != nil {
			t.Fatal(err)
		}
		if f.SealDue() {
			t.Fatalf("a seal came due with %d pages held", id+1)
		}
	}
	f.Free(limit)
	if !f.SealDue() {
		t.Fatalf("no seal due with %d of %d pages held", limit+1, n)
	}
	seal(t, f)
	if f.SealDue() {
		t.Fatal("a seal is still due right after one")
	}
}
