package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
	"repro/internal/xmldb"
)

// A transaction's commit is logged as its statements, not its pages: the
// payload of its storage logical record (storage.FileDisk.CommitLogical) is
//
//	nextID uvarint | #ops uvarint | op…
//	op:   1 | parentID uvarint | node      (insert a numbered subtree)
//	      2 | nodeID uvarint               (delete a subtree)
//	node: id uvarint | label str | flags byte (1 = has a value) [| value str]
//	      | #children uvarint | child node…
//	str:  length uvarint | bytes
//
// Labels and values are strings, never the dictionary's symbol ids: the
// dictionary is shared by every version and interns in whatever order
// statements and replays reach it, so a symbol id means nothing to a
// recovery. Every varint is in its shortest form and every flag byte is 0
// or 1, so a record decodes only from the bytes appendTxRecord makes of it.
// Open replays the records through Tx.applyOp, the path every statement and
// every commit replay takes.

const (
	txOpInsert = 1
	txOpDelete = 2
)

// errTxRecord wraps every malformed logged commit. A record reaches the
// decoder only past its CRC, so a malformed one is corruption.
var errTxRecord = fmt.Errorf("engine: malformed logged commit: %w", storage.ErrCorruptPage)

// appendTxRecord encodes a commit of ops leaving the id counter at nextID.
func appendTxRecord(dst []byte, nextID int64, ops []txOp) []byte {
	dst = binary.AppendUvarint(dst, uint64(nextID))
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		if op.insert {
			dst = append(dst, txOpInsert)
			dst = binary.AppendUvarint(dst, uint64(op.parentID))
			dst = appendTxNode(dst, op.sub)
		} else {
			dst = append(dst, txOpDelete)
			dst = binary.AppendUvarint(dst, uint64(op.nodeID))
		}
	}
	return dst
}

func appendTxNode(dst []byte, n *xmldb.Node) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.ID))
	dst = appendTxStr(dst, n.Label)
	if n.HasValue {
		dst = append(dst, 1)
		dst = appendTxStr(dst, n.Value)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
	for _, c := range n.Children {
		dst = appendTxNode(dst, c)
	}
	return dst
}

func appendTxStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// txReader decodes a logged commit; the first failure sticks.
type txReader struct {
	buf []byte
	err error
}

func (r *txReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errTxRecord, what)
	}
}

// uvarint reads a shortest-form uvarint no larger than max.
func (r *txReader) uvarint(what string, max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n != uvarintLen(v) || v > max {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func (r *txReader) u8(what string) byte {
	if r.err != nil || len(r.buf) == 0 {
		r.fail(what)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *txReader) str(what string) string {
	n := r.uvarint(what, uint64(len(r.buf)))
	if r.err != nil || n > uint64(len(r.buf)) {
		r.fail(what)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// id reads a node id: positive and representable as int64.
func (r *txReader) id(what string) int64 {
	v := r.uvarint(what, 1<<63-1)
	if r.err == nil && v == 0 {
		r.fail(what)
	}
	return int64(v)
}

// txNodeMinBytes is the smallest encoded node (id, empty label, flags, no
// children): counts are bounded by the bytes left before anything is sized
// by them.
const txNodeMinBytes = 4

func (r *txReader) node() *xmldb.Node {
	n := &xmldb.Node{ID: r.id("node id"), Label: r.str("label")}
	switch r.u8("value flag") {
	case 0:
	case 1:
		n.HasValue, n.Value = true, r.str("value")
	default:
		r.fail("value flag")
	}
	kids := r.uvarint("child count", uint64(len(r.buf)/txNodeMinBytes))
	if r.err != nil {
		return nil
	}
	if kids > 0 {
		n.Children = make([]*xmldb.Node, kids)
		for i := range n.Children {
			if n.Children[i] = r.node(); r.err != nil {
				return nil
			}
		}
	}
	return n
}

// decodeTxRecord decodes a logged commit. Anything but the exact bytes
// appendTxRecord makes of some commit fails with an error wrapping
// storage.ErrCorruptPage.
func decodeTxRecord(buf []byte) (nextID int64, ops []txOp, err error) {
	r := &txReader{buf: buf}
	nextID = int64(r.uvarint("id counter", 1<<63-1))
	nops := r.uvarint("statement count", uint64(len(r.buf)/2))
	if r.err == nil && nops == 0 {
		r.fail("no statements")
	}
	if r.err == nil {
		ops = make([]txOp, 0, nops)
	}
	for i := uint64(0); i < nops && r.err == nil; i++ {
		switch r.u8("statement kind") {
		case txOpInsert:
			op := txOp{insert: true, parentID: int64(r.uvarint("parent id", 1<<63-1))}
			op.sub = r.node()
			ops = append(ops, op)
		case txOpDelete:
			ops = append(ops, txOp{nodeID: r.id("deleted id")})
		default:
			r.fail("statement kind")
		}
	}
	if r.err == nil && len(r.buf) > 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	return nextID, ops, nil
}
