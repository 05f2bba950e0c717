//go:build !unix

package storage

import "os"

// lockFile does nothing where flock is unavailable: the database file is
// not locked against a second open.
func lockFile(*os.File) error { return nil }
