package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestMemFileSlotGeometry: every page slot lies in one memFile chunk, and
// chunk boundaries fall on slot boundaries.
func TestMemFileSlotGeometry(t *testing.T) {
	for id := PageID(0); id <= 3*memChunkSlots; id++ {
		first, in, _ := memLoc(slotOff(id))
		last, _, _ := memLoc(slotOff(id) + pageSlotSize - 1)
		if first != last {
			t.Fatalf("slot %d straddles chunks %d and %d", id, first, last)
		}
		if want := 1 + int(id)/memChunkSlots; first != want {
			t.Fatalf("slot %d lies in chunk %d, want %d", id, first, want)
		}
		if (id%memChunkSlots == 0) != (in == 0) {
			t.Fatalf("slot %d starts at offset %d of its chunk", id, in)
		}
	}
	if c, in, size := memLoc(superblockSize - 1); c != 0 || in != superblockSize-1 || size != superblockSize {
		t.Fatalf("the header's last byte is at chunk %d offset %d of %d", c, in, size)
	}
}

// TestMemFileViews: a view is the file's own bytes for a written range
// inside one chunk, and nil for a hole, a range past the end or across
// chunks, a range a Truncate cut, and any range after Close.
func TestMemFileViews(t *testing.T) {
	m := &memFile{}
	id := PageID(memChunkSlots) // first slot of chunk 2: chunk 1 stays a hole
	img := bytes.Repeat([]byte{0xC3}, pageSlotSize)
	if _, err := m.WriteAt(img, slotOff(id)); err != nil {
		t.Fatal(err)
	}
	if v := m.view(slotOff(0), pageSlotSize); v != nil {
		t.Fatal("a hole offered a view")
	}
	v := m.view(slotOff(id), pageSlotSize)
	if !bytes.Equal(v, img) || cap(v) != len(v) {
		t.Fatalf("view of a written slot: %d bytes (cap %d), equal=%v", len(v), cap(v), bytes.Equal(v, img))
	}
	if _, err := m.WriteAt([]byte{0x11}, slotOff(id)+7); err != nil {
		t.Fatal(err)
	}
	if v[7] != 0x11 {
		t.Fatal("a view does not alias the file's bytes")
	}
	if m.view(slotOff(id+1), pageSlotSize) != nil {
		t.Fatal("a slot past the end offered a view")
	}
	if m.view(slotOff(id)-1, 2) != nil {
		t.Fatal("a range across two chunks offered a view")
	}
	if err := m.Truncate(slotOff(id) + PageSize); err != nil {
		t.Fatal(err)
	}
	if m.view(slotOff(id), pageSlotSize) != nil {
		t.Fatal("a slot a Truncate cut offered a view")
	}
	if m.view(slotOff(id), PageSize) == nil {
		t.Fatal("the bytes a Truncate kept offered no view")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.view(slotOff(0), 1) != nil {
		t.Fatal("a closed file offered a view")
	}
}

// viewPool returns a pool of frames frames over an in-memory disk holding
// n pages, page i filled with byte 0x40+i, written home and resident as
// views of their slots.
func viewPool(t *testing.T, frames, n int) (*Pool, []PageID) {
	t.Helper()
	d := NewMemFileDisk()
	t.Cleanup(func() { d.Close() })
	p := newPoolShards(d, int64(frames)*PageSize, 1)
	ids := make([]PageID, n)
	for i := range ids {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		paintPage(pg, byte(0x40+i))
		ids[i] = pg.ID
		if err := p.Unpin(pg, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return p, ids
}

// requireSlot fails unless page id reads back from the device, verified,
// as all b.
func requireSlot(t *testing.T, tag string, d *FileDisk, id PageID, b byte) {
	t.Helper()
	got := make([]byte, PageSize)
	if err := d.Read(id, got); err != nil {
		t.Fatalf("%s: page %d: %v", tag, id, err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{b}, PageSize)) {
		t.Fatalf("%s: page %d changed in its slot", tag, id)
	}
}

// TestFileDiskReadsViews: a pool miss on an in-memory file reads a
// verified view of the slot, a hole reads as a zeroed copy, a corrupt
// slot fails as on the copy path, and each counts as one device read.
func TestFileDiskReadsViews(t *testing.T) {
	d := NewMemFileDisk()
	defer d.Close()
	id, hole := allocate(d, 2), PageID(1)
	if err := d.Write(id, fillPage('v')); err != nil {
		t.Fatal(err)
	}
	data, view, err := d.read(id, nil)
	if err != nil || !view || !bytes.Equal(data, fillPage('v')) || cap(data) != PageSize {
		t.Fatalf("read of a written slot: view %v, err %v, cap %d", view, err, cap(data))
	}
	data, view, err = d.read(hole, nil)
	if err != nil || view || !bytes.Equal(data, make([]byte, PageSize)) {
		t.Fatalf("read of a hole: view %v, err %v", view, err)
	}
	d.file.(*memFile).view(slotOff(id), 1)[0] ^= 0x80 // a flipped bit in the slot
	if _, _, err := d.read(id, nil); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of a corrupt slot: %v, want ErrCorruptPage", err)
	}
	st := d.DeviceStats()
	if st.Reads != 3 || st.BytesRead != 3*PageSize || st.ChecksumFailures != 2 || st.ChecksumRetries != 1 {
		t.Fatalf("counters %+v: want 3 reads of a page, one failure retried and failing again", st)
	}
}

// TestViewFramesNeverRecycled: a frame on the file's bytes that the pool
// drops — evicted, freed or dropped with DropAll — does not hand those
// bytes to pageBufs, where the next Allocate would clear them: every page
// stays intact in its slot, a freed one too, since the sealed state still
// reaches it.
func TestViewFramesNeverRecycled(t *testing.T) {
	for _, path := range []string{"eviction", "Free", "DropAll"} {
		t.Run(path, func(t *testing.T) {
			p, ids := viewPool(t, 4, 4)
			if _, owned := p.Residency(); owned != 0 {
				t.Fatalf("after a flush the frames own %d bytes, want views", owned)
			}
			if path == "Free" {
				// Seal first, so the freed page is held and the next
				// Allocate takes another id.
				if err := p.dev.Seal(InvalidPage, nil); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 4; round++ {
				switch path {
				case "eviction":
					// Each allocation into the full pool evicts a frame.
				case "Free":
					if err := p.Free(ids[round]); err != nil {
						t.Fatal(err)
					}
				case "DropAll":
					if err := p.DropAll(); err != nil {
						t.Fatal(err)
					}
				}
				// Fill the pool with new pages, so the allocations take
				// every buffer pageBufs holds.
				pgs := make([]Page, len(ids))
				for i := range pgs {
					pg, err := p.Allocate()
					if err != nil {
						t.Fatal(err)
					}
					checkZero(t, fmt.Sprintf("round %d", round), pg)
					paintPage(pg, 0xEE)
					pgs[i] = pg
				}
				for _, pg := range pgs {
					if err := p.Unpin(pg, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A freed page is held: the sealed state reaches its slot.
			for i, id := range ids {
				requireSlot(t, path, p.dev, id, byte(0x40+i))
			}
		})
	}
}

// TestPinnedViewAcrossFlush: readers hold a view frame pinned and read it
// while its owner dirties it and FlushPinned writes it home, again and
// again. Writing a view home rewrites only its trailer; under -race, a
// copy of the page onto itself would be reported against the readers.
func TestPinnedViewAcrossFlush(t *testing.T) {
	p, ids := viewPool(t, 4, 2)
	id := ids[0]
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg, err := p.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				for i, b := range pg.Data {
					if b != 0x40 {
						errs <- fmt.Errorf("page %d byte %d reads %#x", id, i, b)
						p.Unpin(pg, false)
						return
					}
				}
				p.Unpin(pg, false)
			}
		}()
	}
	for i := 0; i < 300; i++ {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(pg, true); err != nil {
			t.Fatal(err)
		}
		if err := p.FlushPinned(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	requireSlot(t, "after the flushes", p.dev, id, 0x40)
}

// TestInjectorKeepsCopyPath: with a fault injector attached, an in-memory
// disk's pool frames own copies, so a bit flip lands below the checksum
// and is caught, exactly as on a file.
func TestInjectorKeepsCopyPath(t *testing.T) {
	inj := NewFaultInjector(7, FaultSpec{Kind: FaultBitFlip, Prob: 1})
	d, id := faultedFD(t, inj)
	p := NewPool(d, 4*PageSize)
	pg, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] = 'x'
	if err := p.Unpin(pg, true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, owned := p.Residency(); owned != PageSize {
		t.Fatalf("with an injector the frame owns %d bytes after a flush, want a copy", owned)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	if _, err := p.Fetch(id); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("fetch under a bit flip: %v, want ErrCorruptPage", err)
	}
}

// TestAllocateFailureFreesID: when Pool.Allocate takes an id from the
// device but cannot make room for its frame — the eviction's write
// fails, or every frame stays pinned — the id goes back to the free list
// instead of leaking, and the next allocation reuses it.
func TestAllocateFailureFreesID(t *testing.T) {
	for _, cause := range []string{"eviction write", "all pinned"} {
		t.Run(cause, func(t *testing.T) {
			inj := NewFaultInjector(1, FaultSpec{Kind: FaultWriteErr})
			inj.Disarm()
			d := NewMemFileDisk()
			defer d.Close()
			d.SetFaultInjector(inj)
			p := NewPool(d, PageSize)
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if cause == "eviction write" {
				if err := p.Unpin(pg, true); err != nil {
					t.Fatal(err)
				}
				inj.Arm()
			}
			if _, err := p.Allocate(); err == nil {
				t.Fatal("allocation into a pool that cannot make room succeeded")
			}
			if got := d.FreeList(); len(got) != 1 || got[0] != 1 {
				t.Fatalf("free list %v after the failed allocation, want [1]", got)
			}
			inj.Disarm()
			if cause == "all pinned" {
				if err := p.Unpin(pg, true); err != nil {
					t.Fatal(err)
				}
			}
			pg, err = p.Allocate()
			if err != nil || pg.ID != 1 {
				t.Fatalf("the next allocation = page %d, %v; want page 1", pg.ID, err)
			}
			if n := d.NumPages(); n != 2 {
				t.Fatalf("NumPages = %d, want 2", n)
			}
		})
	}
}
