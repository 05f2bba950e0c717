// Package storage provides the paged storage substrate beneath every index
// structure: a simulated disk of fixed-size pages and an LRU buffer pool
// with pin/unpin semantics and I/O counters.
//
// The paper runs on DB2 with a 40MB buffer pool over a non-memory-resident
// data set so that the number of index/page accesses dominates query time.
// Here the disk is in-memory, but every page crossing the pool boundary is
// copied and counted, so the *relative* costs the paper measures (one index
// lookup vs. a cascade of joins; 1 relation vs. m relations) are preserved
// and observable via Stats.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PageSize is the size of every page in bytes (8KB, a common RDBMS default).
const PageSize = 8192

// PageID identifies a page on the disk. Valid ids start at 0.
type PageID int32

// InvalidPage is the zero-like sentinel for "no page".
const InvalidPage PageID = -1

// Disk is a simulated disk: a growable array of pages. Reads and writes copy
// whole pages and are counted; the counters stand in for the I/O cost a real
// system would pay. Reads of distinct pages proceed in parallel (RWMutex +
// atomic counters) so concurrent faults from different pool shards do not
// serialize on the disk. Disk implements Device; FileDisk is the durable
// counterpart.
type Disk struct {
	mu    sync.RWMutex
	pages [][]byte
	// free holds page ids returned by Free, reused LIFO by Allocate.
	free []PageID
	// statLock makes DeviceStats a single consistent snapshot of the
	// atomic counters (see obs.StatLock).
	statLock obs.StatLock
	reads    atomic.Int64
	writes   atomic.Int64
	freed    atomic.Int64
	reused   atomic.Int64
}

var _ Device = (*Disk)(nil)

// NewDisk returns an empty disk.
func NewDisk() *Disk { return &Disk{} }

// Allocate reserves a new zeroed page and returns its id, reusing a
// previously freed page when one is available.
func (d *Disk) Allocate() PageID {
	d.mu.Lock()
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		clear(d.pages[id])
		d.mu.Unlock()
		d.reused.Add(1)
		return id
	}
	d.mu.Unlock()
	return d.AllocateN(1)
}

// Free returns page id to the free list for reuse by a later Allocate.
func (d *Disk) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	for _, f := range d.free {
		if f == id {
			return fmt.Errorf("storage: double free of page %d", id)
		}
	}
	d.free = append(d.free, id)
	d.freed.Add(1)
	return nil
}

// AllocateN reserves n consecutive zeroed pages under one mutex acquisition
// and returns the first id — the bulk-load fast path.
func (d *Disk) AllocateN(n int) PageID {
	if n <= 0 {
		return InvalidPage
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	first := PageID(len(d.pages))
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, PageSize))
	}
	return first
}

// Read copies page id into buf (which must be PageSize bytes).
func (d *Disk) Read(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	d.statLock.Lock()
	d.reads.Add(1)
	d.statLock.Unlock()
	copy(buf, d.pages[id])
	return nil
}

// Write copies buf (PageSize bytes) to page id.
func (d *Disk) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	d.statLock.Lock()
	d.writes.Add(1)
	d.statLock.Unlock()
	copy(d.pages[id], buf)
	return nil
}

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// Counters returns cumulative (reads, writes).
func (d *Disk) Counters() (reads, writes int64) {
	return d.reads.Load(), d.writes.Load()
}

// DeviceStats returns the full I/O counters. For the in-memory disk the
// byte counters are the pages copied across the device boundary; the WAL
// and checkpoint counters are always zero.
func (d *Disk) DeviceStats() DeviceStats {
	var r, w int64
	d.statLock.Read(func() {
		r, w = d.reads.Load(), d.writes.Load()
	})
	return DeviceStats{
		Reads:        r,
		Writes:       w,
		BytesRead:    r * PageSize,
		BytesWritten: w * PageSize,
		PagesFreed:   d.freed.Load(),
		PagesReused:  d.reused.Load(),
	}
}
