package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// BackupWriter assembles a standalone database file in the FileDisk format
// — superblock, CRC-trailed page slots, free-list trunks — from pages the
// caller streams in. The engine's online backup pins a snapshot, walks its
// reachable pages, copies each through the checksum-verified read path and
// hands them here at their original ids (so the catalog's tree roots stay
// valid); ids inside [0, NumPages) that were never written are turned into
// the backup's free list by Finish, leaving a file that opens exactly like
// one sealed at the pinned state.
//
// The WAL side of a backup is empty by construction: every page image is
// written directly into its slot and the superblock carries the sealed
// metadata, so the restored file replays nothing.
type BackupWriter struct {
	file    File
	path    string
	written map[PageID]struct{}
	maxID   PageID
	scratch []byte
}

// NewBackupWriter creates (or truncates) the backup file at path.
func NewBackupWriter(path string) (*BackupWriter, error) {
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: backup create: %w", err)
	}
	return &BackupWriter{
		file:    osFile{file},
		path:    path,
		written: map[PageID]struct{}{},
		maxID:   InvalidPage,
		scratch: make([]byte, pageSlotSize),
	}, nil
}

// WritePage writes one page image (PageSize bytes) into the backup at id,
// computing a fresh slot CRC. Each id may be written once.
func (b *BackupWriter) WritePage(id PageID, data []byte) error {
	if id < 0 || len(data) != PageSize {
		return fmt.Errorf("storage: backup write of page %d with %d bytes", id, len(data))
	}
	if _, dup := b.written[id]; dup {
		return fmt.Errorf("storage: backup wrote page %d twice", id)
	}
	if err := b.writeSlot(id, data); err != nil {
		return err
	}
	b.written[id] = struct{}{}
	if id > b.maxID {
		b.maxID = id
	}
	return nil
}

// Finish seals the backup: every id below the page count that was never
// written goes onto the free list, laid out so that Allocate hands them
// out in ascending order (so the result is deterministic), the superblock
// is written with the final metadata, and the file is fsynced and closed.
// The backup then opens with OpenFileDisk like any sealed database file.
func (b *BackupWriter) Finish(catalogRoot PageID) (err error) {
	defer func() {
		closeErr := b.file.Close()
		if err == nil && closeErr != nil {
			err = fmt.Errorf("storage: backup close: %w", closeErr)
		}
	}()
	numPages := int32(b.maxID + 1)
	var free []PageID
	for id := PageID(numPages) - 1; id >= 0; id-- {
		if _, ok := b.written[id]; !ok {
			free = append(free, id)
		}
	}
	// The trunks take the highest free ids: every one is a hole.
	k := trunksFor(len(free))
	head, err := layFreeList(free[k:], free[:k], make([]byte, PageSize), b.writeSlot)
	if err != nil {
		return err
	}
	meta := Meta{NumPages: numPages, CatalogRoot: catalogRoot, FreeHead: head}
	if err := writeSuperblock(b.file, 0, 0, meta); err != nil {
		return err
	}
	if err := b.file.Sync(); err != nil {
		return fmt.Errorf("storage: backup sync: %w", err)
	}
	return nil
}

// Abort discards a partially written backup, closing and removing the file.
func (b *BackupWriter) Abort() {
	b.file.Close()
	os.Remove(b.path)
}

func (b *BackupWriter) writeSlot(id PageID, data []byte) error {
	out := b.scratch[:pageSlotSize]
	copy(out, data)
	binary.BigEndian.PutUint32(out[PageSize:], crc32.ChecksumIEEE(data))
	if _, err := b.file.WriteAt(out, slotOff(id)); err != nil {
		return fmt.Errorf("storage: backup write page %d: %w", id, err)
	}
	return nil
}
