package storage

import (
	"io"
	"os"
	"sync"
)

// File is what FileDisk, the WAL scan and the superblock need of the
// bytes beneath them. A database opened at a path runs on two osFiles; one
// opened without a path runs on two memFiles, and a backup on an osFile
// and a memFile log (CreateFileDisk).
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
	Close() error
}

// osFile is a File on the filesystem.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// memFile keeps its bytes in chunks laid out along FileDisk's page slots:
// chunk 0 is the superblockSize-byte header, and every later chunk holds
// memChunk bytes, memChunkSlots whole slots, so no slot straddles two
// chunks and a pool frame can point at a slot's page bytes (view). Chunks
// are allocated on first write and dropped by Truncate, so a file holds its
// written bytes rounded up to a chunk — a doubling []byte would hold up to
// as much again in spare capacity, all of it counted in the heap. A chunk
// of 64 slots is 64×8,196 bytes, which the allocator rounds up to 65 runtime
// pages of 8 KB: 1.5% over the bytes it holds (8 slots would waste 12.4%,
// since every chunk wastes up to one runtime page).
const (
	memChunkSlots = 64
	memChunk      = memChunkSlots * pageSlotSize
)

// memLoc returns the chunk holding byte pos of a memFile, pos's offset in
// it, and that chunk's length.
func memLoc(pos int64) (c, in, size int) {
	if pos < superblockSize {
		return 0, int(pos), superblockSize
	}
	pos -= superblockSize
	return 1 + int(pos/memChunk), int(pos % memChunk), memChunk
}

// memFile is a File in memory. Sync is a no-op: nothing outlives the
// process, so there is no durable image to promote writes to. Reads may run
// concurrently with each other; writes are exclusive. A view aliases a
// chunk's bytes outside the lock: its holder (a pool frame) relies on the
// page-slot stability rule of docs/STORAGE.md, not on the lock, to see no
// concurrent write of those bytes.
type memFile struct {
	mu sync.RWMutex
	// chunks[i] holds the bytes memLoc places in chunk i; a missing or nil
	// chunk reads as zeroes, as do bytes of a chunk at or past size.
	chunks [][]byte
	size   int64
	closed bool
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	if off >= m.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), m.size-off))
	for done := 0; done < n; {
		c, in, size := memLoc(off + int64(done))
		k := min(n-done, size-in)
		if c < len(m.chunks) && m.chunks[c] != nil {
			copy(p[done:done+k], m.chunks[c][in:])
		} else {
			clear(p[done : done+k])
		}
		done += k
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	for done := 0; done < len(p); {
		c, in, size := memLoc(off + int64(done))
		for len(m.chunks) <= c {
			m.chunks = append(m.chunks, nil)
		}
		if m.chunks[c] == nil {
			m.chunks[c] = make([]byte, size)
		}
		done += copy(m.chunks[c][in:], p[done:])
	}
	m.size = max(m.size, off+int64(len(p)))
	return len(p), nil
}

// view returns the n bytes at off as the file's own memory — not a copy —
// or nil when they are not all below the file's size within one allocated
// chunk (a hole, a range past the end or across chunks) or the file is
// closed. The slice's capacity ends at its length, so an append cannot
// reach the bytes after it.
func (m *memFile) view(off int64, n int) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed || off < 0 || off+int64(n) > m.size {
		return nil
	}
	c, in, size := memLoc(off)
	if in+n > size || c >= len(m.chunks) || m.chunks[c] == nil {
		return nil
	}
	return m.chunks[c][in : in+n : in+n]
}

// Truncate sets the file's size, dropping every chunk wholly past it and
// zeroing the rest of a chunk it cuts, so bytes a later extension exposes
// read as zeroes. A view of dropped bytes keeps its memory alive but is no
// longer the file's.
func (m *memFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	keep := 0
	if size > 0 {
		c, _, _ := memLoc(size - 1)
		keep = c + 1
	}
	if keep < len(m.chunks) {
		clear(m.chunks[keep:])
		m.chunks = m.chunks[:keep]
	}
	if c, in, _ := memLoc(size); in != 0 && c < len(m.chunks) && m.chunks[c] != nil {
		clear(m.chunks[c][in:])
	}
	m.size = size
	return nil
}

func (m *memFile) Sync() error { return nil }

func (m *memFile) Size() (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	return m.size, nil
}

// Close releases the file's memory; every later call fails with
// os.ErrClosed, as on a closed os.File, and no view is offered. Views taken
// before keep their bytes alive.
func (m *memFile) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	m.chunks, m.size, m.closed = nil, 0, true
	return nil
}
