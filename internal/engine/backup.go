// Online backup: a snapshot-consistent copy of a database is
// written to a new file while queries and writers keep running. The
// backup pins one snapshot — which defers every free of pages that
// snapshot references (see reclaimRetired), so its reachable page set is
// frozen for the duration even as writers COW, unlink and commit around
// it — walks the B+-tree pages of the snapshot's node table and of every
// index it carries, copies each through the checksum-verified device read
// path at its original id, and re-encodes the snapshot's catalog into
// fresh pages at the tail of the backup (the live chain describes the last
// sync point, which need not be the pinned version, so its pages are the
// one thing that cannot be copied raw). The result is a standalone
// database file with an empty WAL that Open recovers like any sealed
// database.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Backup writes a transactionally consistent copy of the database to
// dstPath while the database stays fully live. An in-memory database backs
// up to a file like any other, unless it holds a HeadId-pruned DATAPATHS
// (ErrPrunedNotPersistable).
func (db *DB) Backup(dstPath string) error {
	s, err := db.pinSealed()
	if err != nil {
		return err
	}
	defer db.unpin(s)
	if dp := s.env.DP; dp != nil && dp.PrunesHeads() {
		return ErrPrunedNotPersistable
	}

	reach := map[storage.PageID]struct{}{}
	add := func(id storage.PageID) error {
		if id < 0 {
			return fmt.Errorf("engine: backup walk reached invalid page id %d", id)
		}
		reach[id] = struct{}{}
		return nil
	}
	if err := db.walkSnapshotPages(s, add); err != nil {
		return fmt.Errorf("engine: backup page walk: %w", err)
	}

	bw, err := storage.NewBackupWriter(dstPath)
	if err != nil {
		return err
	}
	ids := make([]storage.PageID, 0, len(reach))
	for id := range reach {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, storage.PageSize)
	for _, id := range ids {
		// The device read path verifies the slot checksum, so a backup can
		// never capture a silently corrupt page.
		if err := db.fdisk.Read(id, buf); err != nil {
			bw.Abort()
			return fmt.Errorf("engine: backup read page %d: %w", id, err)
		}
		if err := bw.WritePage(id, buf); err != nil {
			bw.Abort()
			return err
		}
	}

	// Serialise the pinned snapshot's catalog into a fresh chain right
	// after the copied pages. Tree roots inside the blob are the original
	// ids, which is why tree pages keep theirs.
	base := storage.PageID(0)
	if len(ids) > 0 {
		base = ids[len(ids)-1] + 1
	}
	blob := encodeCatalog(db, s)
	chain := make([]storage.PageID, catalogChainLen(blob))
	for i := range chain {
		chain[i] = base + storage.PageID(i)
	}
	if err := layCatalogChain(blob, chain, bw.WritePage); err != nil {
		bw.Abort()
		return err
	}
	return bw.Finish(base)
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
