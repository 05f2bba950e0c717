// Package idlist implements the IdList column of the paper's 4-ary relation:
// the ordered list of node identifiers along a schema path. It provides the
// lossless differential (delta) compression of Section 4.1 — ids along a
// path are strongly correlated by parent-child relationships, so storing
// varint-encoded offsets from the previous id saves substantial space — as
// well as an uncompressed fixed-width encoding used to quantify the savings.
package idlist

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
)

// EncodeDelta appends the differential encoding of ids to dst and returns
// the extended slice. The first id is encoded as-is, each subsequent id as
// the (possibly negative, zig-zag encoded) offset from its predecessor.
func EncodeDelta(dst []byte, ids []int64) []byte {
	prev := int64(0)
	for _, id := range ids {
		dst = binary.AppendVarint(dst, id-prev)
		prev = id
	}
	return dst
}

// DecodeDelta decodes a differential encoding produced by EncodeDelta,
// appending the ids to dst.
func DecodeDelta(dst []int64, buf []byte) ([]int64, error) {
	prev := int64(0)
	for len(buf) > 0 {
		d, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("idlist: corrupt varint at tail %d", len(buf))
		}
		buf = buf[n:]
		prev += d
		dst = append(dst, prev)
	}
	return dst, nil
}

// DecodeDeltaAt returns the id at position i (0-based) of an encoded list
// without materialising the whole list; it returns an error if the list is
// shorter than i+1. Positions from the end can be addressed by first calling
// Len.
func DecodeDeltaAt(buf []byte, i int) (int64, error) {
	prev := int64(0)
	for k := 0; ; k++ {
		if len(buf) == 0 {
			return 0, fmt.Errorf("idlist: index %d out of range (len %d)", i, k)
		}
		d, n := binary.Varint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("idlist: corrupt varint")
		}
		buf = buf[n:]
		prev += d
		if k == i {
			return prev, nil
		}
	}
}

// Len returns the number of ids in an encoded list. It counts varint
// terminators (bytes with the continuation bit clear) in a single pass over
// the buffer, without decoding any value. Unterminated and overlong
// (> MaxVarintLen64 bytes) varints are reported as corrupt, matching what a
// full decode would reject.
func Len(buf []byte) (int, error) {
	count, run := 0, 0
	for _, b := range buf {
		if b&0x80 == 0 {
			// A 10th byte may only carry the final bit (binary.Varint's
			// overflow rule for 64-bit values).
			if run == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("idlist: corrupt varint (overflow)")
			}
			count++
			run = 0
		} else {
			run++
			if run >= binary.MaxVarintLen64 {
				return 0, fmt.Errorf("idlist: corrupt varint (overlong)")
			}
		}
	}
	if run != 0 {
		return 0, fmt.Errorf("idlist: corrupt varint at tail %d", len(buf))
	}
	return count, nil
}

// DecodeDeltaInto is DecodeDelta with allocation discipline for hot probe
// paths. Each id occupies at least one encoded byte, so it reserves
// len(dst)+len(buf) ids up front and never grows dst while decoding: a
// caller recycling dst[:0] across rows settles into a steady-state buffer
// with zero per-row allocation and no counting pass. One-byte varints are
// zig-zag decoded inline; longer ones go through binary.Varint, so it
// accepts and rejects exactly what DecodeDelta does.
func DecodeDeltaInto(dst []int64, buf []byte) ([]int64, error) {
	if need := len(dst) + len(buf); cap(dst) < need {
		grown := make([]int64, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	prev := int64(0)
	for i := 0; i < len(buf); {
		if b := buf[i]; b < 0x80 {
			prev += int64(b>>1) ^ -int64(b&1)
			i++
		} else {
			d, n := binary.Varint(buf[i:])
			if n <= 0 {
				return nil, fmt.Errorf("idlist: corrupt varint at tail %d", len(buf)-i)
			}
			prev += d
			i += n
		}
		dst = append(dst, prev)
	}
	return dst, nil
}

// Compare orders two EncodeDelta lists by their ids, numerically and
// lexicographically (a proper prefix first), decoding both in lockstep
// without allocating. While the lists agree their running ids are equal,
// so the first differing delta decides. A corrupt varint orders the rest
// of its list by bytes. For EncodeRaw lists of non-negative ids — big-endian
// — bytes.Compare is the same order.
func Compare(a, b []byte) int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] == b[0] && a[0] < 0x80 {
			a, b = a[1:], b[1:] // the same one-byte delta
			continue
		}
		da, na := binary.Varint(a)
		db, nb := binary.Varint(b)
		if na <= 0 || nb <= 0 {
			return bytes.Compare(a, b)
		}
		if da != db {
			return cmp.Compare(da, db)
		}
		a, b = a[na:], b[nb:]
	}
	return cmp.Compare(len(a), len(b))
}

// EncodeRaw appends the uncompressed fixed-width (8 bytes per id) encoding;
// used only to measure the benefit of differential encoding (Section 5.2.5).
func EncodeRaw(dst []byte, ids []int64) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id))
	}
	return dst
}

// DecodeRaw decodes an EncodeRaw buffer.
func DecodeRaw(dst []int64, buf []byte) ([]int64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("idlist: raw length %d not a multiple of 8", len(buf))
	}
	for len(buf) > 0 {
		dst = append(dst, int64(binary.BigEndian.Uint64(buf)))
		buf = buf[8:]
	}
	return dst, nil
}
