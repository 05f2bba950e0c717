package pathdict

import (
	"encoding/binary"
	"fmt"
)

// Order-preserving composite key encoding.
//
// Every index in the family is an ordinary B+-tree over byte strings; the
// columns it indexes are concatenated so that bytewise key order equals the
// column-order lexicographic order, and so that a query's fixed columns plus
// a schema-path *prefix* form a key prefix (B+-trees are efficient at prefix
// matches, paper Section 3.2):
//
//	value field:  0x01                       (null LeafValue)
//	              0x02 esc(value) 0x00 0x01  (present; 0x00 -> 0x00 0xFF)
//	node id:      8 bytes big-endian
//	schema path:  2 bytes big-endian per designator (no terminator; it is
//	              always the last field, so a path prefix is a key prefix)

const (
	markerNull  = 0x01
	markerValue = 0x02
)

// AppendValueField appends the order-preserving encoding of an optional
// leaf value.
func AppendValueField(dst []byte, hasValue bool, value string) []byte {
	if !hasValue {
		return append(dst, markerNull)
	}
	dst = append(dst, markerValue)
	for i := 0; i < len(value); i++ {
		b := value[i]
		dst = append(dst, b)
		if b == 0x00 {
			dst = append(dst, 0xFF)
		}
	}
	return append(dst, 0x00, 0x01)
}

// DecodeValueField decodes a value field, returning the remainder of buf.
func DecodeValueField(buf []byte) (hasValue bool, value string, rest []byte, err error) {
	if len(buf) == 0 {
		return false, "", nil, fmt.Errorf("pathdict: empty value field")
	}
	switch buf[0] {
	case markerNull:
		return false, "", buf[1:], nil
	case markerValue:
		buf = buf[1:]
		var out []byte
		for i := 0; i < len(buf); i++ {
			b := buf[i]
			if b != 0x00 {
				out = append(out, b)
				continue
			}
			if i+1 >= len(buf) {
				return false, "", nil, fmt.Errorf("pathdict: unterminated value escape")
			}
			switch buf[i+1] {
			case 0xFF:
				out = append(out, 0x00)
				i++
			case 0x01:
				return true, string(out), buf[i+2:], nil
			default:
				return false, "", nil, fmt.Errorf("pathdict: bad escape byte %#x", buf[i+1])
			}
		}
		return false, "", nil, fmt.Errorf("pathdict: unterminated value field")
	default:
		return false, "", nil, fmt.Errorf("pathdict: bad value marker %#x", buf[0])
	}
}

// AppendID appends a node id as 8 bytes big-endian.
func AppendID(dst []byte, id int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

// DecodeID decodes a node id, returning the remainder of buf.
func DecodeID(buf []byte) (int64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("pathdict: short id field (%d bytes)", len(buf))
	}
	return int64(binary.BigEndian.Uint64(buf)), buf[8:], nil
}

// AppendPath appends a schema path, 2 bytes big-endian per designator.
func AppendPath(dst []byte, p Path) []byte {
	for _, s := range p {
		dst = binary.BigEndian.AppendUint16(dst, uint16(s))
	}
	return dst
}

// DecodePath decodes an entire buffer as a schema path.
func DecodePath(buf []byte) (Path, error) {
	if len(buf)%2 != 0 {
		return nil, fmt.Errorf("pathdict: path length %d not a multiple of 2", len(buf))
	}
	p := make(Path, 0, len(buf)/2)
	for len(buf) > 0 {
		p = append(p, Sym(binary.BigEndian.Uint16(buf)))
		buf = buf[2:]
	}
	return p, nil
}

// AppendPathReversed decodes an entire buffer as a schema path, appending
// its designators to dst in reverse order — it turns a stored *reverse*
// path back into the forward path in one pass, with no allocation beyond
// dst growth.
func AppendPathReversed(dst Path, buf []byte) (Path, error) {
	if len(buf)%2 != 0 {
		return dst, fmt.Errorf("pathdict: path length %d not a multiple of 2", len(buf))
	}
	for i := len(buf) - 2; i >= 0; i -= 2 {
		dst = append(dst, Sym(binary.BigEndian.Uint16(buf[i:])))
	}
	return dst, nil
}

// PathsKey encodes the key of the two path indices: ROOTPATHS'
// LeafValue · ReverseSchemaPath (paper Section 3.2) and, when headed,
// DATAPATHS' HeadId · LeafValue · ReverseSchemaPath (Section 3.3) — the
// same key behind a head column. Pass the path already reversed. With a
// reverse-path *prefix* it is the probe prefix for a PCsubpath pattern with
// a leading //; HeadId 0 is the virtual root, which turns a FreeIndex probe
// into a BoundIndex probe.
func PathsKey(dst []byte, headed bool, headID int64, hasValue bool, value string, rev Path) []byte {
	if headed {
		dst = AppendID(dst, headID)
	}
	dst = AppendValueField(dst, hasValue, value)
	return AppendPath(dst, rev)
}
