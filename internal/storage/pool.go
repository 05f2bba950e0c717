package storage

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Page is a pinned page in the buffer pool, returned by value so the hot
// fetch/unpin cycle performs no heap allocation. Data is valid until Unpin.
type Page struct {
	ID   PageID
	Data []byte

	frame *frame
}

// frame is a resident page slot. The prev/next links embed the frame in its
// shard's LRU ring (no container/list element allocation per unpin); both are
// nil while the frame is pinned and therefore off the ring.
type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	prev  *frame
	next  *frame

	// loading is non-nil while the faulting fetcher fills data from disk
	// outside the shard lock (so a slow device never stalls the whole
	// stripe); it is closed when the read completes. Concurrent fetchers of
	// the same page pin the frame and wait on it.
	loading chan struct{}
	loadErr error
}

// PoolStats are cumulative buffer pool counters. PageReads is the paper's
// stand-in for physical I/O: the number of pages faulted in from the disk.
type PoolStats struct {
	PageReads  int64 // disk reads (misses)
	PageWrites int64 // disk writes (evictions + flushes of dirty pages)
	Hits       int64 // fetches satisfied from the pool
	Fetches    int64 // total fetches
}

func (s *PoolStats) add(o PoolStats) {
	s.PageReads += o.PageReads
	s.PageWrites += o.PageWrites
	s.Hits += o.Hits
	s.Fetches += o.Fetches
}

// shardThreshold is the capacity (in pages) below which the pool stays
// unsharded: tiny pools (unit tests, cold-start experiments) keep the exact
// global-LRU eviction order, so their PoolStats remain bit-identical to the
// historical single-lock pool.
const shardThreshold = 256

// maxShards bounds the lock striping; must be a power of two.
const maxShards = 16

// shard is one lock stripe of the pool: a page-table fragment plus its own
// LRU ring and counters. Pages map to shards by PageID, so concurrent
// readers of distinct pages never contend on a mutex.
type shard struct {
	mu       sync.Mutex
	unpinned *sync.Cond // signalled when a frame becomes evictable
	dev      *FileDisk
	capacity int
	frames   map[PageID]*frame
	lru      frame // ring sentinel: lru.next = least recently used
	stats    PoolStats

	// waitHead/waitTail is the FIFO queue of fetchers waiting in makeRoom
	// for a frame to become evictable. Only the head of the queue may take
	// room, and newly arriving fetchers queue behind it instead of taking
	// freed frames directly — without that rule a woken waiter loses every
	// freed frame to a faster fetcher and eventually exhausts its wait
	// budget with frames passing it by (a spurious all-pinned error under
	// saturated concurrent-query traffic).
	waitHead, waitTail *roomWaiter
}

// roomWaiter is one queued makeRoom caller (intrusive FIFO link).
type roomWaiter struct{ next *roomWaiter }

// pageBufs recycles the page buffers of frames the pool discards — freed
// pages and evicted ones — for the frames Allocate and Fetch's miss path
// make, so a copy-on-write writer that allocates a page for every one it
// retires makes no page garbage. A discarded frame is unpinned, and Page
// data is valid only until Unpin, so no caller still reads the buffer.
// A sync.Pool rather than a spare list: it holds idle buffers only between
// garbage collections, so recycling never pins memory the pool gave up.
var pageBufs = sync.Pool{
	New: func() any { return new([PageSize]byte) },
}

// getPageBuf returns a page buffer, recycled or new. Its bytes are
// arbitrary: the caller overwrites or clears all of them.
func getPageBuf() []byte { return pageBufs.Get().(*[PageSize]byte)[:] }

// putPageBuf hands back a buffer no frame references any more.
func putPageBuf(b []byte) { pageBufs.Put((*[PageSize]byte)(b)) }

// Pool is an LRU buffer pool over a FileDisk, lock-striped into shards
// keyed by PageID. All access to page contents goes through Fetch/Unpin;
// pinned pages are never evicted. Capacity is enforced per shard (total
// across shards equals the configured capacity). Dirty frames are written
// back to their slots on eviction and on a flush — the engine's sync point
// flushes every modification before the device seals it.
type Pool struct {
	dev      *FileDisk
	capacity int
	mask     uint32
	shards   []shard

	// missHist, when set (SetMissObserver, before the pool is shared),
	// observes the device-read latency of every pool miss in
	// nanoseconds. The hit path never touches it.
	missHist *obs.Histogram
}

// SetMissObserver installs the pool-miss latency histogram. Set once
// before the pool is shared (the engine does this at Open).
func (p *Pool) SetMissObserver(h *obs.Histogram) { p.missHist = h }

// NewPool returns a pool holding at most capacityBytes of pages (minimum
// one page).
func NewPool(dev *FileDisk, capacityBytes int64) *Pool {
	capPages := int(capacityBytes / PageSize)
	n := 1
	if capPages >= shardThreshold {
		n = maxShards
	}
	return newPoolShards(dev, capacityBytes, n)
}

// newPoolShards is NewPool with an explicit lock-stripe count (the shard
// tests pin it to 1). shards is clamped to [1, 16] and rounded down to a
// power of two.
func newPoolShards(dev *FileDisk, capacityBytes int64, shards int) *Pool {
	capPages := int(capacityBytes / PageSize)
	if capPages < 1 {
		capPages = 1
	}
	n := 1
	for n*2 <= shards && n*2 <= maxShards {
		n *= 2
	}
	if n > capPages {
		// At least one frame per stripe.
		for n > 1 && n > capPages {
			n /= 2
		}
	}
	p := &Pool{
		dev:      dev,
		capacity: capPages,
		mask:     uint32(n - 1),
		shards:   make([]shard, n),
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.dev = dev
		s.capacity = capPages / n
		if i < capPages%n {
			s.capacity++
		}
		s.frames = make(map[PageID]*frame)
		s.lru.next = &s.lru
		s.lru.prev = &s.lru
		s.unpinned = sync.NewCond(&s.mu)
	}
	return p
}

func (p *Pool) shardFor(id PageID) *shard {
	return &p.shards[uint32(id)&p.mask]
}

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// NumShards returns the number of lock stripes.
func (p *Pool) NumShards() int { return len(p.shards) }

// Stats returns a snapshot of the pool counters, summed across shards.
func (p *Pool) Stats() PoolStats {
	var st PoolStats
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		st.add(s.stats)
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the counters (between experiment runs).
func (p *Pool) ResetStats() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.stats = PoolStats{}
		s.mu.Unlock()
	}
}

// Fetch pins page id and returns it. The caller must Unpin it.
//
// On a miss the disk read happens outside the shard lock (a slow simulated
// device must not stall the whole stripe); concurrent fetchers of the same
// page wait for the in-flight read instead of issuing their own.
func (p *Pool) Fetch(id PageID) (Page, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	s.stats.Fetches++
	for {
		if f, ok := s.frames[id]; ok {
			s.stats.Hits++
			s.pin(f)
			loading := f.loading
			s.mu.Unlock()
			if loading != nil {
				<-loading
				if err := f.loadErr; err != nil {
					s.mu.Lock()
					f.pins-- // dead frame, already out of the map; no ring insert
					s.mu.Unlock()
					return Page{}, err
				}
			}
			return Page{ID: id, Data: f.data, frame: f}, nil
		}
		// Miss: reserve a pinned frame under the lock, then read into it.
		if err := s.makeRoom(); err != nil {
			s.mu.Unlock()
			return Page{}, err
		}
		// makeRoom can drop the latch while waiting for an unpin; if a
		// concurrent fetcher installed this page meanwhile, inserting a
		// second frame would alias the page — loop back to the hit path.
		if _, ok := s.frames[id]; !ok {
			break
		}
	}
	f := &frame{id: id, data: getPageBuf(), pins: 1, loading: make(chan struct{})}
	s.frames[id] = f
	s.stats.PageReads++
	s.mu.Unlock()

	var err error
	if p.missHist != nil {
		start := time.Now()
		err = s.dev.Read(id, f.data)
		p.missHist.Observe(time.Since(start).Nanoseconds())
	} else {
		err = s.dev.Read(id, f.data)
	}

	s.mu.Lock()
	f.loadErr = err
	close(f.loading)
	f.loading = nil
	if err != nil {
		// Failed load: withdraw the frame. Waiters still hold pins on the
		// dead frame and drop them on wake-up (above).
		delete(s.frames, id)
		f.pins--
		s.unpinned.Broadcast() // Broadcast, not Signal: a non-head waiter must not swallow the head's wake-up
	}
	s.mu.Unlock()
	if err != nil {
		return Page{}, err
	}
	return Page{ID: id, Data: f.data, frame: f}, nil
}

// Allocate reserves a page on the device — popping the free list first,
// growing the page array only when it is empty — and pins a fresh all-zero
// frame for it without a device read. The frame's buffer may be a recycled
// one (see pageBufs); it is cleared, so the page is all zero either way.
// The frame starts dirty, so the page reaches the device even if the
// caller writes nothing into it.
func (p *Pool) Allocate() (Page, error) { return p.allocate(nil) }

// AllocateCopy is Allocate with the new page holding a copy of src, a page
// image, instead of zeroes: a copy-on-write copy of a shared page, which
// would otherwise clear a buffer only to overwrite it.
func (p *Pool) AllocateCopy(src []byte) (Page, error) { return p.allocate(src[:PageSize]) }

// allocate is Allocate with the new page's bytes a copy of src, or zero
// when src is nil.
func (p *Pool) allocate(src []byte) (Page, error) {
	id := p.dev.Allocate()
	if id == InvalidPage {
		return Page{}, fmt.Errorf("storage: page ids exhausted")
	}
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if _, ok := s.frames[id]; ok {
			return Page{}, fmt.Errorf("storage: allocated page %d is resident", id)
		}
		if err := s.makeRoom(); err != nil {
			return Page{}, err
		}
		// makeRoom can drop the latch; re-check residency like Fetch does.
		if _, ok := s.frames[id]; !ok {
			break
		}
	}
	data := getPageBuf()
	if src == nil {
		clear(data)
	} else {
		copy(data, src)
	}
	f := &frame{id: id, data: data, pins: 1, dirty: true}
	s.frames[id] = f
	return Page{ID: id, Data: f.data, frame: f}, nil
}

// Free returns page id to the device's free list, discarding any resident
// frame — including its dirty content, which by definition nobody will read
// again. Freeing a pinned or still-loading page is a caller bug and errors
// without touching the device; the page stays allocated.
func (p *Pool) Free(id PageID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if f.pins > 0 || f.loading != nil {
			s.mu.Unlock()
			return fmt.Errorf("storage: free of pinned page %d", id)
		}
		s.unlink(f)
		delete(s.frames, id)
		putPageBuf(f.data)
		s.unpinned.Broadcast() // a room waiter can use the freed slot
	}
	s.mu.Unlock()
	return p.dev.Free(id)
}

// ScratchPage returns a page-sized buffer of arbitrary content for a
// caller that builds a page image aside (a B+-tree compacting a page).
// Hand it back with RecycleScratch once nothing reads it.
func (p *Pool) ScratchPage() []byte { return getPageBuf() }

// RecycleScratch hands back a buffer ScratchPage returned.
func (p *Pool) RecycleScratch(b []byte) { putPageBuf(b) }

// Unpin releases the page; dirty marks it modified so eviction writes it
// back. Unpinning a page that is not pinned is a reference-count underflow
// and returns ErrNotPinned — an error rather than a panic, because the
// pool cannot tell a caller bug from pin state corrupted by a propagating
// disk fault, and disk state must never kill the process.
func (p *Pool) Unpin(pg Page, dirty bool) error {
	f := pg.frame
	if f == nil {
		return fmt.Errorf("%w: page %d has no frame", ErrNotPinned, pg.ID)
	}
	s := p.shardFor(pg.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pins <= 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, pg.ID)
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins == 0 {
		s.pushBack(f)
		s.unpinned.Broadcast() // see makeRoom: only the queue head takes room, so all waiters must wake
	}
	return nil
}

// FlushAll writes every unpinned dirty frame back to disk (does not
// evict). Pinned dirty frames are skipped: a pinned page may belong to a
// writer that is still mutating it — with concurrent transaction
// preparers, flushing it mid-mutation would race with the owner and
// persist a torn intermediate state. A caller that must write every page
// (the engine's sync point) stops the writers and uses FlushPinned.
func (p *Pool) FlushAll() error { return p.flush(false) }

// FlushPinned writes every dirty frame back to disk, pinned ones included.
// The caller guarantees that no page of the pool is being written while it
// runs, so a pinned frame is one a reader holds and its bytes are stable.
// The engine's sync point needs this: a page a logical commit published
// dirty may be pinned by a query at the moment the sync point seals it.
func (p *Pool) FlushPinned() error { return p.flush(true) }

func (p *Pool) flush(pinned bool) error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty && (f.pins == 0 || pinned) {
				if err := s.dev.Write(f.id, f.data); err != nil {
					s.mu.Unlock()
					return err
				}
				s.stats.PageWrites++
				f.dirty = false
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// DropAll flushes and empties the pool; used to cold-start an experiment.
// Frames are only dropped once the whole shard has been checked and flushed,
// so an early error (pinned page, write failure) leaves the shard's map and
// LRU ring consistent.
func (p *Pool) DropAll() error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for id, f := range s.frames {
			if f.pins > 0 {
				s.mu.Unlock()
				return fmt.Errorf("storage: DropAll with pinned page %d", id)
			}
		}
		for _, f := range s.frames {
			if f.dirty {
				if err := s.dev.Write(f.id, f.data); err != nil {
					s.mu.Unlock()
					return err
				}
				s.stats.PageWrites++
				f.dirty = false
			}
		}
		for _, f := range s.frames {
			putPageBuf(f.data)
		}
		s.frames = make(map[PageID]*frame)
		s.lru.next = &s.lru
		s.lru.prev = &s.lru
		s.mu.Unlock()
	}
	return nil
}

// pushBack appends f at the most-recently-used end of the shard's LRU ring.
func (s *shard) pushBack(f *frame) {
	tail := s.lru.prev
	f.prev, f.next = tail, &s.lru
	tail.next = f
	s.lru.prev = f
}

// unlink removes f from the LRU ring.
func (s *shard) unlink(f *frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

func (s *shard) pin(f *frame) {
	if f.next != nil {
		s.unlink(f)
	}
	f.pins++
}

// roomWaitBudget bounds how long makeRoom waits for an unpin before
// declaring the pool exhausted. Pins are held for microseconds (an iterator
// on a leaf, a descent step), so a ~200ms budget rides out any transient
// all-pinned moment while a genuinely wedged shard still errors promptly.
// The budget is measured in elapsed time, not wake-ups: under heavy traffic
// a woken waiter routinely loses the freed frame to a faster fetcher, and
// counting such lost races would burn a wake-up budget in microseconds.
const roomWaitBudget = 200 * time.Millisecond

// roomWaitTick is the per-round wake-up interval of makeRoom's wait, so an
// actually-wedged shard (capacity pinned forever) errors out instead of
// deadlocking.
const roomWaitTick = 20 * time.Millisecond

// tryRoom makes space for one more frame if it can without waiting: a free
// slot, or evicting the least recently used unpinned frame. It reports
// whether room is available.
func (s *shard) tryRoom() (bool, error) {
	if len(s.frames) < s.capacity {
		return true, nil
	}
	victim := s.lru.next
	if victim == &s.lru {
		return false, nil
	}
	if victim.dirty {
		// Write back before unlinking: if the device rejects the write (an
		// injected fault, a poisoned disk), the victim must stay on the LRU
		// ring — unlinking first would strand an unpinned frame off-ring,
		// permanently shrinking the shard's evictable set.
		if err := s.dev.Write(victim.id, victim.data); err != nil {
			return false, err
		}
		s.stats.PageWrites++
		victim.dirty = false
	}
	s.unlink(victim)
	delete(s.frames, victim.id)
	putPageBuf(victim.data)
	return true, nil
}

// makeRoom ensures the shard has space for one more frame: it evicts the
// least recently used unpinned frame, or — when every frame is momentarily
// pinned, which tiny per-shard capacities under heavy session concurrency
// make possible — waits (bounded) for an Unpin instead of failing.
//
// Waiters are served fairly: freed frames go to the oldest waiter. While
// any fetcher is queued, newcomers join the queue behind it rather than
// grabbing freed frames directly, and only the queue head takes room —
// so a waiter can never burn its whole budget losing wake-up races to
// faster fetchers, and errors out only when the shard genuinely cannot
// produce a frame for it within the budget.
func (s *shard) makeRoom() error {
	if s.waitHead == nil {
		if ok, err := s.tryRoom(); ok || err != nil {
			return err
		}
	}
	w := &roomWaiter{}
	if s.waitTail == nil {
		s.waitHead = w
	} else {
		s.waitTail.next = w
	}
	s.waitTail = w
	defer func() {
		// Leave the queue (head on success; possibly mid-queue on timeout)
		// and wake the rest: the new head must learn it may now take room,
		// and each Unpin signals only once.
		if s.waitHead == w {
			s.waitHead = w.next
		} else {
			for p := s.waitHead; p != nil; p = p.next {
				if p.next == w {
					p.next = w.next
					break
				}
			}
		}
		if w.next == nil {
			s.waitTail = nil
			for p := s.waitHead; p != nil; p = p.next {
				s.waitTail = p
			}
		}
		if s.waitHead != nil {
			s.unpinned.Broadcast()
		}
	}()
	var deadline time.Time
	for {
		if s.waitHead == w {
			ok, err := s.tryRoom()
			if ok || err != nil {
				return err
			}
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(roomWaitBudget)
		} else if now.After(deadline) {
			return fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", s.capacity)
		}
		s.waitUnpin()
	}
}

// waitUnpin blocks on the shard's unpin signal for at most roomWaitTick.
func (s *shard) waitUnpin() {
	t := time.AfterFunc(roomWaitTick, func() {
		s.mu.Lock()
		s.unpinned.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	s.unpinned.Wait()
}
