package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Write-ahead log record framing.
//
// The WAL is an append-only sequence of CRC-framed records. Three record
// types exist:
//
//	frame:   'F' | pageID u32 | payload[PageSize] | crc32 u32
//	commit:  'C' | seq u64 | floor u64 | numPages u32 | catalogRoot u32 | freeHead u32 | crc32 u32
//	logical: 'L' | seq u64 | length u32 | payload[length] | crc32 u32
//
// All integers are big-endian; the CRC (IEEE) covers every record byte
// before it, including the type byte. A frame carries one full page image.
// A commit record (a physical commit, written at a sync point) makes every
// frame appended before it at an offset of at least its floor part of the
// committed page state, and carries the metadata (page count, catalog root,
// free-list head) that becomes the authoritative database state. A logical
// record carries one commit as its caller encoded it (the engine's
// statements); it commits no frame. Commit and logical records share one
// sequence: each is numbered one above the record before it, and a commit
// record covers every logical record numbered below it.
//
// Recovery scans the log from the start and stops at the first short,
// corrupt, unknown or out-of-sequence record. The page state is that of the
// last valid commit record; the logical records after it are handed back,
// in order, for their caller to replay; frames after the last commit record
// are uncommitted and discarded. Discarded frames may lie between logical
// records, which recovery keeps, so the next commit record names the offset
// recovery stopped at as its floor: frames below it never join the page
// state.

const (
	walRecFrame   = 'F'
	walRecCommit  = 'C'
	walRecLogical = 'L'

	walFrameHeaderSize = 1 + 4                             // type + pageID
	walFrameSize       = walFrameHeaderSize + PageSize + 4 // + payload + crc
	walCommitSize      = 1 + 8 + 8 + 4 + 4 + 4 + 4         // type + seq + floor + meta + crc
	walLogicalHeader   = 1 + 8 + 4                         // type + seq + length
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

// appendWALCommit encodes a commit record numbered seq, committing the
// frames at or past floor, for meta into dst.
func appendWALCommit(dst []byte, seq, floor int64, m Meta) []byte {
	start := len(dst)
	dst = append(dst, walRecCommit)
	dst = binary.BigEndian.AppendUint64(dst, uint64(seq))
	dst = binary.BigEndian.AppendUint64(dst, uint64(floor))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.NumPages))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.CatalogRoot))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.FreeHead))
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// appendWALLogical encodes a logical record numbered seq carrying payload
// into dst.
func appendWALLogical(dst []byte, seq int64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, walRecLogical)
	dst = binary.BigEndian.AppendUint64(dst, uint64(seq))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// walSpan locates one record in the log.
type walSpan struct{ off, n int64 }

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
	// end is the offset just past the last valid commit or logical record —
	// the length the WAL should be truncated to. physEnd is the offset just
	// past the last valid commit record (0 without one).
	end, physEnd int64
	// seq is the sequence number of the last record kept (0 without one).
	seq int64
	// logical locates the logical records after the last commit record, in
	// order, and payloads holds their payloads: the commits the caller
	// replays over the page state.
	logical  []walSpan
	payloads [][]byte
	// commits counts the valid commit records replayed; with the logical
	// records handed back it is surfaced as DeviceStats.RecoveredCommits so
	// tests and operators can see how much committed state a recovery (or
	// an interior-corruption truncation) preserved.
	commits int64
}

// scanWAL reads the log sequentially, validating CRCs, and returns the
// committed state. Replay stops at the first short, corrupt or unknown
// record, at a record numbered other than one above the record before it,
// and at a commit record whose Meta is impossible (Meta.valid) or whose
// floor lies past its own offset: everything from that record on is
// discarded, whether it is a torn tail (a crash mid-append) or a corrupt
// *interior* record (a bad sector in the middle of the log) — in the latter
// case the commits after the corruption are lost, but the state returned is
// a consistent commit boundary, never a mix. The caller truncates to end
// and can compare the commits count against expectations to see how much
// survived. A short read at EOF is the torn tail; any other read error is a
// device fault and must be reported, never treated as a tail to truncate
// (that would silently roll back committed state).
func scanWAL(wal File) (walScanResult, error) {
	res := walScanResult{index: map[PageID]int64{}}
	size, err := wal.Size()
	if err != nil {
		return res, err
	}
	pending := map[PageID]int64{}
	buf := make([]byte, walFrameSize)
	off := int64(0)
	readRec := func(n int) (bool, error) {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		got, err := wal.ReadAt(buf[:n], off)
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("storage: wal scan at %d: %w", off, err)
		}
		return got == n, nil
	}
	// inSequence reports whether a record numbered seq may follow the
	// records kept so far (and be followed: the counter never wraps).
	inSequence := func(seq int64) bool {
		return seq > 0 && seq < math.MaxInt64 && (res.seq == 0 || seq == res.seq+1)
	}
	for {
		full, err := readRec(1)
		if err != nil {
			return res, err
		}
		if !full {
			break
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
			seq := int64(binary.BigEndian.Uint64(buf[1:9]))
			floor := int64(binary.BigEndian.Uint64(buf[9:17]))
			meta := Meta{
				NumPages:    int32(binary.BigEndian.Uint32(buf[17:21])),
				CatalogRoot: PageID(binary.BigEndian.Uint32(buf[21:25])),
				FreeHead:    PageID(binary.BigEndian.Uint32(buf[25:29])),
			}
			if !meta.valid() || !inSequence(seq) || floor < 0 || floor > off {
				return res, nil // ends the log like a bad CRC
			}
			for id, payloadOff := range pending {
				if payloadOff >= floor {
					res.index[id] = payloadOff
				}
			}
			clear(pending)
			res.meta = meta
			res.hasCommit = true
			res.seq = seq
			res.logical, res.payloads = nil, nil
			res.commits++
			off += walCommitSize
			res.end, res.physEnd = off, off
		case walRecLogical:
			full, err := readRec(walLogicalHeader)
			if err != nil {
				return res, err
			}
			if !full {
				return res, nil
			}
			seq := int64(binary.BigEndian.Uint64(buf[1:9]))
			n := int64(walLogicalHeader) + int64(binary.BigEndian.Uint32(buf[9:13])) + 4
			if n > size-off {
				return res, nil // torn tail, or a length no log holds
			}
			if full, err = readRec(int(n)); err != nil {
				return res, err
			}
			if !full || !walCRCOK(buf[:n]) || !inSequence(seq) {
				return res, nil
			}
			res.logical = append(res.logical, walSpan{off, n})
			res.payloads = append(res.payloads, bytes.Clone(buf[walLogicalHeader:n-4]))
			res.seq = seq
			off += n
			res.end = off
		default:
			return res, nil // unknown type: torn tail
		}
	}
	return res, nil
}

// walCRCOK validates the trailing CRC of one encoded record.
func walCRCOK(rec []byte) bool {
	body, tail := rec[:len(rec)-4], rec[len(rec)-4:]
	return crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(tail)
}
