// Online backup: a snapshot-consistent copy of a file-backed database is
// written to a new file while queries and writers keep running. The
// backup pins one snapshot — which defers every free of pages that
// snapshot references (see reclaimRetired), so its reachable page set is
// frozen for the duration even as writers COW, unlink and commit around
// it — walks the B+-tree pages of every index the snapshot carries,
// copies each through the checksum-verified device read path at its
// original id, and re-encodes the snapshot's catalog into fresh pages at
// the tail of the backup (the live catalog chain is rewritten in place by
// concurrent commits, so its pages are the one thing that cannot be
// copied raw). The result is a standalone database file with an empty
// WAL that Open recovers like any cleanly checkpointed database.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Backup writes a transactionally consistent copy of the database to
// dstPath while the database stays fully live. Returns an error on
// in-memory databases (nothing durable to copy).
func (db *DB) Backup(dstPath string) error {
	if db.fdisk == nil {
		return fmt.Errorf("engine: backup requires a file-backed database")
	}
	s := db.pin()
	defer db.unpin(s)

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
		// The device read path verifies the slot checksum (or reads the
		// newer WAL copy), so a backup can never capture a silently
		// corrupt page.
		if err := db.dev.Read(id, buf); err != nil {
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
	blob := encodeCatalog(s)
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

// walkSnapshotPages enumerates every device page reachable from the
// snapshot's index handles. The store, dictionaries and statistics live in
// the catalog blob, not in pages, so the indices are the entire page
// footprint.
func (db *DB) walkSnapshotPages(s *Snapshot, fn func(storage.PageID) error) error {
	for _, st := range s.env.Structures() {
		if err := st.WalkPages(fn); err != nil {
			return err
		}
	}
	return nil
}
