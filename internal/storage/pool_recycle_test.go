package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// paintPage writes b into every byte of pg.
func paintPage(pg Page, b byte) {
	for i := range pg.Data {
		pg.Data[i] = b
	}
}

// checkZero fails unless every byte of pg is zero.
func checkZero(t *testing.T, tag string, pg Page) {
	t.Helper()
	for i, b := range pg.Data {
		if b != 0 {
			t.Fatalf("%s: page %d byte %d is %#x, want an all-zero page", tag, pg.ID, i, b)
		}
	}
}

// TestAllocateAfterFreeIsZero: pages filled, freed and allocated again —
// their frames' buffers recycled — come back all zero.
func TestAllocateAfterFreeIsZero(t *testing.T) {
	p := NewPool(NewMemFileDisk(), 8*PageSize)
	for round := 0; round < 4; round++ {
		var ids []PageID
		for i := 0; i < 6; i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			checkZero(t, fmt.Sprintf("round %d", round), pg)
			paintPage(pg, 0xA5)
			ids = append(ids, pg.ID)
			if err := p.Unpin(pg, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if err := p.Free(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAllocateAfterEvictionIsZero: in a two-frame pool, each allocation
// evicts a filled dirty frame and may take its buffer; the new page is all
// zero, and every evicted page reads back whole from the device into
// whatever buffer its fetch is given.
func TestAllocateAfterEvictionIsZero(t *testing.T) {
	p := NewPool(NewMemFileDisk(), 2*PageSize)
	var ids []PageID
	for i := 0; i < 8; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		checkZero(t, fmt.Sprintf("allocation %d", i), pg)
		paintPage(pg, byte(0x10+i))
		ids = append(ids, pg.ID)
		if err := p.Unpin(pg, true); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.PageWrites < 6 {
		t.Fatalf("%d write-backs, want every allocation past the second to evict", st.PageWrites)
	}
	for i, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		for j, b := range pg.Data {
			if b != byte(0x10+i) {
				t.Fatalf("page %d byte %d is %#x after eviction, want %#x", id, j, b, 0x10+i)
			}
		}
		p.Unpin(pg, false)
	}
}

// TestPoolRecyclesUnderConcurrentReaders (run under -race): readers fetch
// stamped pages of a sharded pool twice its capacity — so their misses
// evict and take recycled buffers — while a writer allocates, scribbles on
// and frees pages. Every byte a reader sees while it holds a pin must be
// its page's stamp: a buffer recycled while still pinned, or filled only
// in part, shows as a wrong byte (or a race report).
func TestPoolRecyclesUnderConcurrentReaders(t *testing.T) {
	p := NewPool(NewMemFileDisk(), int64(shardThreshold)*PageSize)
	if p.NumShards() == 1 {
		t.Fatal("pool not sharded")
	}
	stamp := func(pg Page) {
		for i := 0; i < PageSize; i += 4 {
			binary.BigEndian.PutUint32(pg.Data[i:], uint32(pg.ID))
		}
	}
	const pages = 2 * shardThreshold
	ids := make([]PageID, pages)
	for i := range ids {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stamp(pg)
		ids[i] = pg.ID
		p.Unpin(pg, true)
	}

	const readers, iters = 4, 1500
	var readWG, writeWG sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(seed int64) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := ids[rng.Intn(pages)]
				pg, err := p.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < PageSize; j += 4 {
					if got := PageID(binary.BigEndian.Uint32(pg.Data[j:])); got != id {
						p.Unpin(pg, false)
						errs <- fmt.Errorf("page %d: word at %d reads %d", id, j, got)
						return
					}
				}
				p.Unpin(pg, false)
			}
		}(int64(r))
	}
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pg, err := p.Allocate()
			if err != nil {
				errs <- err
				return
			}
			for _, b := range pg.Data {
				if b != 0 {
					p.Unpin(pg, false)
					errs <- fmt.Errorf("allocation %d: page %d is not all zero", i, pg.ID)
					return
				}
			}
			paintPage(pg, 0xEE)
			p.Unpin(pg, true)
			if err := p.Free(pg.ID); err != nil {
				errs <- err
				return
			}
		}
	}()
	readWG.Wait()
	close(stop)
	writeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
