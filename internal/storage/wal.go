package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Write-ahead log record framing.
//
// The WAL is an append-only sequence of CRC-framed records. Two record
// types exist:
//
//	frame:  'F' | pageID u32 | payload[PageSize] | crc32 u32
//	commit: 'C' | numPages u32 | catalogRoot u32 | freeHead u32 | crc32 u32
//
// All integers are big-endian; the CRC (IEEE) covers every record byte
// before it, including the type byte. A frame carries one full page image;
// a commit record makes every frame appended before it durable and carries
// the metadata (page count, catalog root, free-list head) that becomes the
// authoritative database state. Recovery scans the log from the start and
// stops at the first short, corrupt or unknown record: frames after the
// last valid commit record are a torn tail and are discarded.

const (
	walRecFrame  = 'F'
	walRecCommit = 'C'

	walFrameHeaderSize = 1 + 4                             // type + pageID
	walFrameSize       = walFrameHeaderSize + PageSize + 4 // + payload + crc
	walCommitSize      = 1 + 4 + 4 + 4 + 4                 // type + meta + crc
)

// Meta is the commit-time database metadata: it is carried by every commit
// record and by the superblock, and the most recent committed copy is the
// authoritative description of the database.
type Meta struct {
	// NumPages is the number of allocated pages.
	NumPages int32
	// CatalogRoot is the first page of the engine catalog chain
	// (InvalidPage when no catalog has been written).
	CatalogRoot PageID
	// FreeHead is the head trunk of the on-disk free list: a trunk is a
	// free page whose image lists up to 2,044 free page ids and the next
	// trunk (see the free list section in docs/STORAGE.md). A commit
	// appends a frame for each trunk it changed before its commit record,
	// so frees are exactly as crash-safe as page writes. InvalidPage means
	// the list is empty.
	FreeHead PageID
}

// valid reports whether m describes a possible database: a page count of
// at least zero, and a catalog root and free-list head that are each
// InvalidPage or a page below the count. Recovery trusts no Meta that
// fails it, from the superblock or from a commit record.
func (m Meta) valid() bool {
	inRange := func(id PageID) bool { return id == InvalidPage || id >= 0 && int32(id) < m.NumPages }
	return m.NumPages >= 0 && inRange(m.CatalogRoot) && inRange(m.FreeHead)
}

// appendWALFrame encodes a frame record for (id, payload) into dst.
func appendWALFrame(dst []byte, id PageID, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, walRecFrame)
	dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// appendWALCommit encodes a commit record for meta into dst.
func appendWALCommit(dst []byte, m Meta) []byte {
	start := len(dst)
	dst = append(dst, walRecCommit)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.NumPages))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.CatalogRoot))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.FreeHead))
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// walScanResult is the outcome of a recovery scan.
type walScanResult struct {
	// index maps each page to the WAL offset of its latest committed frame
	// payload.
	index map[PageID]int64
	// meta is the metadata of the last valid commit record.
	meta Meta
	// hasCommit reports whether any commit record was found (when false,
	// meta is meaningless and the caller keeps the superblock's).
	hasCommit bool
	// committedEnd is the offset just past the last valid commit record —
	// the length the WAL should be truncated to.
	committedEnd int64
	// commits counts the valid commit records replayed — surfaced as
	// DeviceStats.RecoveredCommits so tests and operators can see how much
	// committed state a recovery (or an interior-corruption truncation)
	// preserved.
	commits int64
}

// scanWAL reads the log sequentially, validating CRCs, and returns the
// committed state. Replay stops at the first short, corrupt or unknown
// record, or commit record whose Meta is impossible (Meta.valid):
// everything from that record on is discarded, whether it is a
// torn tail (a crash mid-append) or a corrupt *interior* frame (a bad
// sector in the middle of the log) — in the latter case the commits after
// the corruption are lost, but the state returned is a consistent commit
// boundary, never a mix. The caller truncates to committedEnd and can
// compare the commits count against expectations to see how much survived.
// A short read at EOF is the torn tail; any other read error is a device
// fault and must be reported, never treated as a tail to truncate (that
// would silently roll back committed state).
func scanWAL(wal File) (walScanResult, error) {
	res := walScanResult{index: map[PageID]int64{}}
	pending := map[PageID]int64{}
	buf := make([]byte, walFrameSize)
	off := int64(0)
	readRec := func(n int) (bool, error) {
		got, err := wal.ReadAt(buf[:n], off)
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("storage: wal scan at %d: %w", off, err)
		}
		return got == n, nil
	}
	for {
		full, err := readRec(1)
		if err != nil {
			return res, err
		}
		if !full {
			return res, nil
		}
		switch buf[0] {
		case walRecFrame:
			full, err := readRec(walFrameSize)
			if err != nil {
				return res, err
			}
			if !full || !walCRCOK(buf[:walFrameSize]) {
				return res, nil // torn tail
			}
			id := PageID(binary.BigEndian.Uint32(buf[1:5]))
			pending[id] = off + walFrameHeaderSize
			off += walFrameSize
		case walRecCommit:
			full, err := readRec(walCommitSize)
			if err != nil {
				return res, err
			}
			if !full || !walCRCOK(buf[:walCommitSize]) {
				return res, nil
			}
			meta := Meta{
				NumPages:    int32(binary.BigEndian.Uint32(buf[1:5])),
				CatalogRoot: PageID(binary.BigEndian.Uint32(buf[5:9])),
				FreeHead:    PageID(binary.BigEndian.Uint32(buf[9:13])),
			}
			if !meta.valid() {
				return res, nil // impossible metadata ends the log like a bad CRC
			}
			for id, payloadOff := range pending {
				res.index[id] = payloadOff
			}
			pending = map[PageID]int64{}
			res.meta = meta
			res.hasCommit = true
			res.commits++
			off += walCommitSize
			res.committedEnd = off
		default:
			return res, nil // unknown type: torn tail
		}
	}
}

// walCRCOK validates the trailing CRC of one encoded record.
func walCRCOK(rec []byte) bool {
	body, tail := rec[:len(rec)-4], rec[len(rec)-4:]
	return crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(tail)
}
