//go:build unix

package storage

import (
	"errors"
	"testing"
)

// TestOpenFileDiskLocks: a database file opens once at a time; the second
// open fails with ErrLocked and succeeds after Close.
func TestOpenFileDiskLocks(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	if _, err := OpenFileDisk(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: got %v, want ErrLocked", err)
	}
	f.Close()
	mustOpenFD(t, path).Close()
}
