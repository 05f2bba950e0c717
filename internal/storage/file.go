package storage

import (
	"io"
	"os"
	"sync"
)

// File is what FileDisk, the WAL scan, the superblock and BackupWriter
// need of the bytes beneath them. A database opened at a path runs on two
// osFiles; one opened without a path runs on two memFiles.
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

// memChunk is memFile's allocation unit. Chunks are allocated on first
// write and dropped by Truncate, so a file holds its written bytes rounded
// up to a chunk — a doubling []byte would hold up to as much again in
// spare capacity, all of it counted in the heap.
const memChunk = 64 << 10

// memFile is a File in memory. Sync is a no-op: nothing outlives the
// process, so there is no durable image to promote writes to. Reads may run
// concurrently with each other; writes are exclusive.
type memFile struct {
	mu sync.RWMutex
	// chunks[i] holds bytes [i*memChunk, (i+1)*memChunk); a missing or nil
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
		pos := off + int64(done)
		c, in := int(pos/memChunk), int(pos%memChunk)
		k := min(n-done, memChunk-in)
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
		pos := off + int64(done)
		c, in := int(pos/memChunk), int(pos%memChunk)
		for len(m.chunks) <= c {
			m.chunks = append(m.chunks, nil)
		}
		if m.chunks[c] == nil {
			m.chunks[c] = make([]byte, memChunk)
		}
		done += copy(m.chunks[c][in:], p[done:])
	}
	m.size = max(m.size, off+int64(len(p)))
	return len(p), nil
}

// Truncate sets the file's size, dropping every chunk wholly past it and
// zeroing the rest of a chunk it cuts, so bytes a later extension exposes
// read as zeroes.
func (m *memFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	keep := int((size + memChunk - 1) / memChunk)
	if keep < len(m.chunks) {
		clear(m.chunks[keep:])
		m.chunks = m.chunks[:keep]
	}
	if in := int(size % memChunk); in != 0 && keep <= len(m.chunks) && m.chunks[keep-1] != nil {
		clear(m.chunks[keep-1][in:])
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
// os.ErrClosed, as on a closed os.File.
func (m *memFile) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	m.chunks, m.size, m.closed = nil, 0, true
	return nil
}
