package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPoolShardSelection: tiny pools stay unsharded (preserving the exact
// global-LRU semantics the eviction tests rely on); realistic pools stripe.
func TestPoolShardSelection(t *testing.T) {
	d := NewDisk()
	if n := NewPool(d, 4*PageSize).NumShards(); n != 1 {
		t.Fatalf("tiny pool sharded: %d shards", n)
	}
	big := NewPool(d, 40<<20)
	if n := big.NumShards(); n != maxShards {
		t.Fatalf("40MB pool has %d shards, want %d", n, maxShards)
	}
	// Shard capacities must sum to the configured capacity.
	total := 0
	for i := range big.shards {
		total += big.shards[i].capacity
	}
	if total != big.Capacity() {
		t.Fatalf("shard capacities sum to %d, want %d", total, big.Capacity())
	}
}

// TestPoolShardedConcurrentReaders hammers a sharded pool from parallel
// readers (run under -race to validate the lock striping): every fetch must
// observe the page's own id stamped in its data, and the summed counters
// must account for every fetch.
func TestPoolShardedConcurrentReaders(t *testing.T) {
	d := NewDisk()
	p := NewPool(d, int64(shardThreshold)*PageSize)
	if p.NumShards() == 1 {
		t.Fatalf("pool not sharded")
	}
	const pages = 512 // 2x capacity, so readers also race on evictions
	ids := make([]PageID, pages)
	for i := range ids {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(pg.Data, uint32(pg.ID))
		ids[i] = pg.ID
		p.Unpin(pg, true)
	}

	const (
		readers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			x := uint32(seed)*2654435761 + 1
			for i := 0; i < iters; i++ {
				x = x*1664525 + 1013904223 // LCG; no locking, per-goroutine
				id := ids[x%pages]
				pg, err := p.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				if got := PageID(binary.BigEndian.Uint32(pg.Data)); got != id {
					p.Unpin(pg, false)
					errs <- fmt.Errorf("page %d stamped %d", id, got)
					return
				}
				p.Unpin(pg, false)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Fetches != readers*iters {
		t.Fatalf("Fetches = %d, want %d", st.Fetches, readers*iters)
	}
	if st.Hits+st.PageReads != st.Fetches {
		t.Fatalf("hits (%d) + misses (%d) != fetches (%d)", st.Hits, st.PageReads, st.Fetches)
	}
}

// TestDropAllErrorLeavesPoolConsistent: a DropAll refused by a pinned page
// must not half-empty a shard (frames deleted from the map but still linked
// in the LRU ring would corrupt capacity accounting).
func TestDropAllErrorLeavesPoolConsistent(t *testing.T) {
	d := NewDisk()
	p := NewPool(d, 4*PageSize)
	var clean []PageID
	for i := 0; i < 2; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, pg.ID)
		p.Unpin(pg, true)
	}
	pinned, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropAll(); err == nil {
		t.Fatalf("DropAll with pinned page: want error")
	}
	// The unpinned frames must still be resident (hits, not faults).
	p.ResetStats()
	for _, id := range clean {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	}
	if st := p.Stats(); st.Hits != int64(len(clean)) || st.PageReads != 0 {
		t.Fatalf("failed DropAll evicted frames: %+v", st)
	}
	p.Unpin(pinned, true)
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolShardedPinnedNotEvicted: with every unpinned frame of one shard
// evicted, a pinned page in that shard must survive capacity pressure.
func TestPoolShardedPinnedNotEvicted(t *testing.T) {
	d := NewDisk()
	p := NewPool(d, int64(shardThreshold)*PageSize)
	// Pin one page, then flood its shard with 2x its capacity.
	pinned, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(pinned.Data, 0xDEADBEEF)
	s := p.shardFor(pinned.ID)
	flood := 0
	for flood < 2*s.capacity {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if p.shardFor(pg.ID) == s {
			flood++
		}
		p.Unpin(pg, true)
	}
	if got := binary.BigEndian.Uint32(pinned.Data); got != 0xDEADBEEF {
		t.Fatalf("pinned page clobbered under shard pressure: %#x", got)
	}
	p.Unpin(pinned, true)
}

// TestMakeRoomFairnessUnderChurn is the regression test for the makeRoom
// wake-up race: a fetcher waiting for room used to compete with every
// faster fetcher for each freed frame, could lose the race every round for
// the whole roomWaitBudget, and then surfaced a spurious "buffer pool
// exhausted" error even though frames were being freed constantly. With the
// FIFO hand-off, freed frames go to the oldest waiter and newcomers queue
// behind it, so under continuous churn every fetch must succeed.
func TestMakeRoomFairnessUnderChurn(t *testing.T) {
	dev := NewDisk()
	// One stripe, two frames: every miss needs room, so fetchers fight
	// over eviction constantly.
	p := newPoolShards(dev, 2*PageSize, 1)
	const pages = 8
	dev.AllocateN(pages)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Fast fetchers: tight miss loops that historically snatched every
	// freed frame from under the waiters.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg, err := p.Fetch(PageID((g + i) % pages))
				if err != nil {
					errs <- err
					return
				}
				p.Unpin(pg, false)
				i++
			}
		}()
	}

	// Slow fetchers: interleave distinct pages so they regularly queue in
	// makeRoom while the fast loops churn. Every fetch must succeed well
	// within the wait budget.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for id := PageID(0); id < pages; id++ {
			pg, err := p.Fetch(id)
			if err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("fetch of page %d starved: %v", id, err)
			}
			p.Unpin(pg, false)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMakeRoomWaiterGetsFreedFrame: with the whole shard pinned, a queued
// fetcher must obtain the one frame an Unpin frees — even when a rival
// fetcher arrives at the same moment — rather than timing out.
func TestMakeRoomWaiterGetsFreedFrame(t *testing.T) {
	dev := NewDisk()
	p := newPoolShards(dev, PageSize, 1) // capacity 1: one frame total
	dev.AllocateN(3)

	held, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		pg, err := p.Fetch(1) // queues: the only frame is pinned
		if err == nil {
			p.Unpin(pg, false)
		}
		got <- err
	}()
	// Give the waiter time to queue, then free the frame.
	time.Sleep(20 * time.Millisecond)
	p.Unpin(held, false)
	if err := <-got; err != nil {
		t.Fatalf("queued fetcher lost the freed frame: %v", err)
	}
}
