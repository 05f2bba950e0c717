package storage

import "errors"

// Typed storage errors. Fault-hardened callers (the engine, the pool, the
// B+-trees) match these with errors.Is to distinguish disk-state problems —
// which must surface as errors, degrade the database, or trigger a retry —
// from programmer errors, which still panic. Every error returned by the
// storage layer for a media-level problem wraps one of these sentinels.
var (
	// ErrCorruptPage reports that a page image failed validation: a db-file
	// page whose CRC trailer does not match its contents, a B+-tree page
	// whose header is
	// structurally impossible, or a superblock with a bad magic, a bad
	// checksum or an impossible page count, catalog root or free-list head.
	// The read path retries once (a transient fault may not recur) before
	// returning it.
	ErrCorruptPage = errors.New("storage: corrupt page")

	// ErrFormatVersion reports a database file written in a format this
	// build does not read: a superblock stamped with another storage
	// version or page size, or (from the engine) a catalog of another
	// version. The open is refused before anything is written to the
	// file; upgrading is a reload (see docs/STORAGE.md).
	ErrFormatVersion = errors.New("storage: unsupported format version")

	// ErrPoisoned reports that the FileDisk has poisoned itself after a
	// failed fsync (fsyncgate semantics: the kernel may have dropped dirty
	// cache pages, so nothing written since the last durable boundary can be
	// trusted). Once poisoned, every write, commit and sync point is
	// rejected; reads keep working, protected by checksums.
	ErrPoisoned = errors.New("storage: device poisoned by fsync failure")

	// ErrInjected marks an error produced by a FaultInjector rather than the
	// real device. Tests and the torture harness match it to tell injected
	// faults from genuine ones.
	ErrInjected = errors.New("storage: injected fault")

	// ErrLocked reports that the database file is already open — in this
	// process or another — by a FileDisk holding its exclusive lock. The
	// lock is advisory (flock) and dropped by Close or by the holder's exit.
	ErrLocked = errors.New("storage: database file is locked by another open")

	// ErrNoSpace reports an out-of-space condition (injected ENOSPC).
	ErrNoSpace = errors.New("storage: no space left on device")

	// ErrNotPinned reports an Unpin of a page that is not pinned — a
	// reference-count underflow. It is returned, not panicked, because the
	// pool cannot tell a caller bug from a frame table corrupted by a
	// propagating disk fault.
	ErrNotPinned = errors.New("storage: unpin of unpinned page")
)
