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
// The WAL holds one kind of record, the logical record:
//
//	'L' | seq u64 | length u32 | payload[length] | crc32 u32
//
// All integers are big-endian; the CRC (IEEE) covers every record byte
// before it, including the type byte. A logical record carries one commit
// as its caller encoded it (the engine's statements). Records are numbered
// one above the record before them, continuing the sequence the superblock
// is stamped with: a sync point seals every record appended before it into
// the database file and stamps the superblock with the next number, so the
// records a recovery must replay are exactly those numbered past the
// superblock's sequence.
//
// Recovery scans the log from the start and stops at the first short,
// corrupt or unknown record, and at the first record out of sequence.
// Records numbered at or below the superblock's sequence (left behind when
// a crash came between a sync point's superblock and its log truncation)
// are skipped; the rest are handed back, in order, for their caller to
// replay.

const (
	walRecLogical    = 'L'
	walLogicalHeader = 1 + 8 + 4 // type + seq + length
)

// Meta is the database metadata a superblock carries beside its commit
// sequence; the valid superblock with the higher sequence is the
// authoritative description of the database.
type Meta struct {
	// NumPages is the number of allocated pages.
	NumPages int32
	// CatalogRoot is the first page of the engine catalog chain
	// (InvalidPage when no catalog has been written).
	CatalogRoot PageID
	// FreeHead is the head trunk of the on-disk free list: a trunk is a
	// free page whose image lists up to 2,044 free page ids and the next
	// trunk (see the free list section in docs/STORAGE.md). InvalidPage
	// means the list is empty.
	FreeHead PageID
}

// valid reports whether m describes a possible database: a page count of
// at least zero, and a catalog root and free-list head that are each
// InvalidPage or a page below the count. Recovery trusts no superblock
// whose Meta fails it.
func (m Meta) valid() bool {
	inRange := func(id PageID) bool { return id == InvalidPage || id >= 0 && int32(id) < m.NumPages }
	return m.NumPages >= 0 && inRange(m.CatalogRoot) && inRange(m.FreeHead)
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

// scanWAL reads the log sequentially, validating CRCs, and returns the
// payloads of the records numbered past sealed, in order — the commits
// the caller replays over the sealed state — with the sequence of the last
// one (sealed without one) and the offset just past the last valid record,
// the length the log should be truncated to. The scan stops at the first
// short, corrupt or unknown record, and at a record that is neither at or
// below sealed (while none has been kept) nor numbered one above the
// record kept before it: everything from there on is discarded, whether
// it is a torn tail (a crash mid-append) or a corrupt *interior* record (a
// bad sector in the middle of the log) — in the latter case the commits
// after the corruption are lost, but the state returned is a consistent
// commit boundary, never a mix. A short read at EOF is the torn tail; any
// other read error is a device fault and must be reported, never treated
// as a tail to truncate (that would silently roll back committed state).
func scanWAL(wal File, sealed int64) (end, seq int64, payloads [][]byte, err error) {
	seq = sealed
	size, err := wal.Size()
	if err != nil {
		return 0, 0, nil, err
	}
	var buf []byte
	readRec := func(n int) (bool, error) {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		got, err := wal.ReadAt(buf[:n], end)
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("storage: wal scan at %d: %w", end, err)
		}
		return got == n, nil
	}
	for {
		full, err := readRec(walLogicalHeader)
		if err != nil || !full || buf[0] != walRecLogical {
			return end, seq, payloads, err // a clean end, a torn tail or an unknown type
		}
		recSeq := int64(binary.BigEndian.Uint64(buf[1:9]))
		n := int64(walLogicalHeader) + int64(binary.BigEndian.Uint32(buf[9:13])) + 4
		if n > size-end {
			return end, seq, payloads, nil // torn tail, or a length no log holds
		}
		if full, err = readRec(int(n)); err != nil || !full || !walCRCOK(buf[:n]) {
			return end, seq, payloads, err
		}
		switch {
		case recSeq >= 0 && recSeq <= sealed && len(payloads) == 0:
			// Sealed by the superblock already.
		case recSeq == seq+1 && recSeq < math.MaxInt64:
			payloads = append(payloads, bytes.Clone(buf[walLogicalHeader:n-4]))
			seq = recSeq
		default:
			return end, seq, payloads, nil // out of sequence: ends the log like a bad CRC
		}
		end += n
	}
}

// walCRCOK validates the trailing CRC of one encoded record.
func walCRCOK(rec []byte) bool {
	body, tail := rec[:len(rec)-4], rec[len(rec)-4:]
	return crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(tail)
}
