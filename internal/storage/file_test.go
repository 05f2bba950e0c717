package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

// TestMemFileChunks: reads and writes that straddle chunk boundaries, holes
// that read as zeroes, short reads at the end, and a Truncate that drops
// chunks and zeroes the cut one, so a later extension exposes zeroes.
func TestMemFileChunks(t *testing.T) {
	m := &memFile{}
	data := bytes.Repeat([]byte{0xAB}, memChunk+100)
	off := int64(superblockSize + 2*memChunk - 50) // chunks 0 and 1 stay holes
	if n, err := m.WriteAt(data, off); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if size, _ := m.Size(); size != off+int64(len(data)) {
		t.Fatalf("Size = %d, want %d", size, off+int64(len(data)))
	}
	got := make([]byte, len(data))
	if n, err := m.ReadAt(got, off); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt straddling chunks = %d, %v, equal=%v", n, err, bytes.Equal(got, data))
	}
	hole := make([]byte, 10)
	hole[0] = 1
	if _, err := m.ReadAt(hole, 5); err != nil || !bytes.Equal(hole, make([]byte, 10)) {
		t.Fatalf("hole read = %v, %v", hole, err)
	}
	if m.chunks[0] != nil {
		t.Fatal("a hole allocated its chunk")
	}
	if n, err := m.ReadAt(got, off+10); n != len(data)-10 || err != io.EOF {
		t.Fatalf("read past the end = %d, %v; want %d, EOF", n, err, len(data)-10)
	}

	cut := off + 20
	if err := m.Truncate(cut); err != nil {
		t.Fatal(err)
	}
	if want, _, _ := memLoc(cut - 1); len(m.chunks) != want+1 {
		t.Fatalf("Truncate kept %d chunks, want %d", len(m.chunks), want)
	}
	if err := m.Truncate(off + int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:20], data[:20]) || !bytes.Equal(got[20:], make([]byte, len(data)-20)) {
		t.Fatal("bytes past a Truncate came back after extending")
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(got, 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read after Close: %v, want os.ErrClosed", err)
	}
	if _, err := m.WriteAt(got, 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("write after Close: %v, want os.ErrClosed", err)
	}
}
