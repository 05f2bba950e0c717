package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestDiskReadWrite(t *testing.T) {
	d := NewMemFileDisk()
	id := d.Allocate()
	buf := make([]byte, PageSize)
	buf[0], buf[PageSize-1] = 0xAA, 0xBB
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatalf("read back mismatch")
	}
	if err := d.Read(PageID(99), got); err == nil {
		t.Fatalf("read of unallocated page: want error")
	}
	if err := d.Write(PageID(99), got); err == nil {
		t.Fatalf("write of unallocated page: want error")
	}
	r, w := d.Counters()
	if r != 1 || w != 1 {
		t.Fatalf("counters = %d, %d", r, w)
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}

func TestPoolAllocateFetchRoundTrip(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 4*PageSize)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[7] = 42
	p.Unpin(pg, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	pg2, err := p.Fetch(pg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pg2.Data[7] != 42 {
		t.Fatalf("data lost across flush/drop")
	}
	p.Unpin(pg2, false)
}

func TestPoolEvictionWritesDirty(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 2*PageSize) // 2-frame pool
	var ids []PageID
	for i := 0; i < 3; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(i + 1)
		ids = append(ids, pg.ID)
		p.Unpin(pg, true)
	}
	// Page 0 must have been evicted (and written back) to admit page 2.
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data[0] != 1 {
		t.Fatalf("evicted dirty page lost: %d", pg.Data[0])
	}
	p.Unpin(pg, false)
	st := p.Stats()
	if st.PageWrites == 0 {
		t.Fatalf("no page writes despite eviction")
	}
	if st.PageReads == 0 {
		t.Fatalf("no page reads despite fault")
	}
}

func TestPoolLRUOrder(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 2*PageSize)
	a, _ := p.Allocate()
	p.Unpin(a, true)
	b, _ := p.Allocate()
	p.Unpin(b, true)
	// Touch a so b becomes LRU.
	pa, _ := p.Fetch(a.ID)
	p.Unpin(pa, false)
	c, _ := p.Allocate() // must evict b
	p.Unpin(c, true)

	p.ResetStats()
	pa2, _ := p.Fetch(a.ID) // hit
	p.Unpin(pa2, false)
	st := p.Stats()
	if st.Hits != 1 || st.PageReads != 0 {
		t.Fatalf("a was evicted out of LRU order: %+v", st)
	}
	pb, _ := p.Fetch(b.ID) // miss
	p.Unpin(pb, false)
	if st = p.Stats(); st.PageReads != 1 {
		t.Fatalf("b unexpectedly resident: %+v", st)
	}
}

func TestPoolPinnedNotEvicted(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 1*PageSize)
	a, _ := p.Allocate() // pinned
	if _, err := p.Allocate(); err == nil {
		t.Fatalf("allocating past an all-pinned pool: want error")
	}
	p.Unpin(a, true)
	if _, err := p.Allocate(); err != nil {
		t.Fatalf("allocate after unpin: %v", err)
	}
}

func TestPoolDoubleUnpinError(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 2*PageSize)
	a, _ := p.Allocate()
	if err := p.Unpin(a, false); err != nil {
		t.Fatalf("first unpin: %v", err)
	}
	if err := p.Unpin(a, false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unpin: got %v, want ErrNotPinned", err)
	}
	if err := p.Unpin(Page{ID: 7}, false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("unpin of frameless page: got %v, want ErrNotPinned", err)
	}
}

func TestPoolMultiplePins(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 2*PageSize)
	a, _ := p.Allocate()
	a2, err := p.Fetch(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(a, false)
	// Still pinned once; a 1-capacity eviction pass must fail to evict it.
	p.Unpin(a2, true)
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDropAllRefusesPinned(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 2*PageSize)
	a, _ := p.Allocate()
	if err := p.DropAll(); err == nil {
		t.Fatalf("DropAll with pinned page: want error")
	}
	p.Unpin(a, true)
}

func TestPoolStatsHitsMisses(t *testing.T) {
	d := NewMemFileDisk()
	p := NewPool(d, 8*PageSize)
	a, _ := p.Allocate()
	p.Unpin(a, true)
	p.FlushAll()
	p.DropAll()
	p.ResetStats()
	for i := 0; i < 5; i++ {
		pg, err := p.Fetch(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	}
	st := p.Stats()
	if st.Fetches != 5 || st.PageReads != 1 || st.Hits != 4 {
		t.Fatalf("stats = %+v", st)
	}
}
