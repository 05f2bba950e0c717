package storage

import (
	"io"
	"math/rand"
	"slices"
	"sync"
)

// crashSector is the unit CrashFile tears a write at: each sector of an
// unsynced write survives a crash or not on its own.
const crashSector = 512

// CrashFile is an in-memory File that keeps, beside the bytes written to
// it, the image a crash would leave on the medium: Sync makes everything
// written so far durable, and Crash returns the durable image with each
// write and truncation since the last Sync dropped, applied, or — a write —
// torn at sector boundaries. It is the device of crash sweeps: open a
// FileDisk over two of them (OpenFiles), run a workload, call Crash at
// every write, and recover from NewCrashFile of each image.
type CrashFile struct {
	mu      sync.Mutex
	written []byte // the file as the process sees it
	durable []byte // the file as the medium holds it since the last Sync
	pending []crashOp
	// OnChange, when set, runs after every write, truncation and sync, on
	// the caller's goroutine and outside the file's lock.
	OnChange func()
}

// crashOp is one unsynced change: a write of data at off, or a
// truncation to off.
type crashOp struct {
	off      int64
	data     []byte
	truncate bool
}

// NewCrashFile returns a CrashFile whose durable and written images are
// img.
func NewCrashFile(img []byte) *CrashFile {
	return &CrashFile{written: slices.Clone(img), durable: slices.Clone(img)}
}

func (c *CrashFile) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off >= int64(len(c.written)) {
		return 0, io.EOF
	}
	n := copy(p, c.written[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (c *CrashFile) WriteAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.written = put(c.written, p, off)
	c.pending = append(c.pending, crashOp{off: off, data: slices.Clone(p)})
	c.mu.Unlock()
	c.changed()
	return len(p), nil
}

func (c *CrashFile) Truncate(size int64) error {
	c.mu.Lock()
	c.written = resize(c.written, size)
	c.pending = append(c.pending, crashOp{off: size, truncate: true})
	c.mu.Unlock()
	c.changed()
	return nil
}

func (c *CrashFile) Sync() error {
	c.mu.Lock()
	c.durable = slices.Clone(c.written)
	c.pending = nil
	c.mu.Unlock()
	c.changed()
	return nil
}

func (c *CrashFile) Size() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.written)), nil
}

// Close is a no-op: a crash sweep keeps reading the images of a file its
// disk has closed.
func (c *CrashFile) Close() error { return nil }

func (c *CrashFile) changed() {
	if c.OnChange != nil {
		c.OnChange()
	}
}

// Crash returns the image a crash now would leave: the durable image with
// the changes since the last Sync replayed in order, each one, as seed
// decides, dropped, applied, or — a write — applied sector by sector with
// each sector kept or lost.
func (c *CrashFile) Crash(seed int64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	img := slices.Clone(c.durable)
	for _, op := range c.pending {
		switch mode := rng.Intn(3); {
		case mode == 0: // lost
		case op.truncate:
			img = resize(img, op.off)
		case mode == 1:
			img = put(img, op.data, op.off)
		default: // torn
			for at := op.off; at < op.off+int64(len(op.data)); {
				next := min((at/crashSector+1)*crashSector, op.off+int64(len(op.data)))
				if rng.Intn(2) == 0 {
					img = put(img, op.data[at-op.off:next-op.off], at)
				}
				at = next
			}
		}
	}
	return img
}

// put writes p into b at off, growing b with zeroes as needed.
func put(b, p []byte, off int64) []byte {
	if end := off + int64(len(p)); end > int64(len(b)) {
		b = resize(b, end)
	}
	copy(b[off:], p)
	return b
}

// resize returns b cut or zero-extended to size.
func resize(b []byte, size int64) []byte {
	if size <= int64(len(b)) {
		return b[:size]
	}
	return append(b, make([]byte, size-int64(len(b)))...)
}
