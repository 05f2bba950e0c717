// Online backup: a snapshot-consistent copy of a database is
// written to a new file while queries and writers keep running. The
// backup pins one snapshot — which defers every free of pages that
// snapshot references (see reclaimRetired), so its reachable page set is
// frozen for the duration even as writers COW, unlink and commit around
// it — walks the B+-tree pages of the snapshot's node table and of every
// index it carries, and copies each through the checksum-verified device
// read path into a fresh FileDisk (storage.CreateFileDisk) at its original
// id. The snapshot's catalog is re-encoded into the ids no copied page
// takes (the live chain describes the last sync point, which need not be
// the pinned version, so its pages are the one thing that cannot be copied
// raw), and the copy is sealed like any sync point (storage.FileDisk.Seal).
// The result is a standalone database file without a WAL that Open
// recovers like any sealed database.
package engine

import (
	"fmt"
	"os"
	"slices"

	"repro/internal/storage"
)

// Backup writes a transactionally consistent copy of the database to
// dstPath while the database stays fully live. A destination another open
// database holds — this one's own file included — is refused with
// storage.ErrLocked and left untouched. An in-memory database backs up to
// a file like any other, unless it holds a HeadId-pruned DATAPATHS
// (ErrPrunedNotPersistable).
func (db *DB) Backup(dstPath string) (err error) {
	s, err := db.pinSealed()
	if err != nil {
		return err
	}
	defer db.unpin(s)
	if dp := s.env.DP; dp != nil && dp.PrunesHeads() {
		return ErrPrunedNotPersistable
	}

	var ids []storage.PageID
	add := func(id storage.PageID) error {
		if id < 0 {
			return fmt.Errorf("engine: backup walk reached invalid page id %d", id)
		}
		ids = append(ids, id)
		return nil
	}
	if err := db.walkSnapshotPages(s, add); err != nil {
		return fmt.Errorf("engine: backup page walk: %w", err)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)

	dst, err := storage.CreateFileDisk(dstPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := dst.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("engine: backup close: %w", cerr)
		}
		if err != nil {
			os.Remove(dstPath)
		}
	}()
	// A fresh disk allocates 0, 1, 2, … in turn, so every copied page keeps
	// its id and the tree roots inside the catalog stay valid. The ids no
	// copied page takes are holes, freed after the walk and reusable at
	// once: the catalog chain goes there.
	var holes []storage.PageID
	buf := make([]byte, storage.PageSize)
	for want := storage.PageID(0); len(ids) > 0; want++ {
		if got := dst.Allocate(); got != want {
			return fmt.Errorf("engine: backup allocated page %d, want %d", got, want)
		}
		if want != ids[0] {
			holes = append(holes, want)
			continue
		}
		ids = ids[1:]
		// The device read path verifies the slot checksum, so a backup can
		// never capture a silently corrupt page.
		if err := db.fdisk.Read(want, buf); err != nil {
			return fmt.Errorf("engine: backup read page %d: %w", want, err)
		}
		if err := dst.Write(want, buf); err != nil {
			return fmt.Errorf("engine: backup write page %d: %w", want, err)
		}
	}
	for _, id := range holes {
		if err := dst.Free(id); err != nil {
			return err
		}
	}
	chain, err := writeCatalogChain(dst, encodeCatalog(db, s))
	if err != nil {
		return err
	}
	return dst.Seal(chain[0], nil)
}

// pinSealed pins the current snapshot once every page it reaches is on the
// device, running a sync point first (see commitCurrent) when it has no
// node table yet or when commits were logged since the last sync point —
// their pages are dirty in the pool, which Backup's device reads bypass.
// Any sync point after a version was published wrote its pages, so a clean
// log past a sync point proves the pinned version sealed.
func (db *DB) pinSealed() (*Snapshot, error) {
	s := db.pin()
	if commits, _ := db.fdisk.LogSinceSync(); s.env.Nodes != nil && commits == 0 {
		return s, nil
	}
	db.unpin(s)
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	err := db.writeGate()
	if err == nil {
		err = db.noteCommitErr(db.commitCurrent())
	}
	if err != nil {
		return nil, err
	}
	return db.pin(), nil
}

// walkSnapshotPages enumerates every device page reachable from the
// snapshot: its node table's and its index handles'. The dictionaries and
// statistics live in the catalog blob, not in pages, so these trees are
// the entire page footprint.
func (db *DB) walkSnapshotPages(s *Snapshot, fn func(storage.PageID) error) error {
	if s.env.Nodes != nil {
		if err := s.env.Nodes.WalkPages(fn); err != nil {
			return err
		}
	}
	for _, st := range s.env.Structures() {
		if err := st.WalkPages(fn); err != nil {
			return err
		}
	}
	return nil
}
