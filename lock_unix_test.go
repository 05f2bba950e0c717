//go:build unix

package twigdb_test

import (
	"errors"
	"path/filepath"
	"testing"

	twigdb "repro"
)

// TestOpenLocksFile: a database file has one owner at a time. A second
// Open of the same path fails with ErrLocked until the first DB closes.
func TestOpenLocksFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "locked.twigdb")
	db, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twigdb.Open(&twigdb.Options{Path: path}); !errors.Is(err, twigdb.ErrLocked) {
		t.Fatalf("second Open: got %v, want ErrLocked", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
}
