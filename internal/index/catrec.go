package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
)

// Catalog records. Every persisted structure reduces to the Metas of its
// B+-trees plus whatever small in-memory registries it carries (path
// tables, root sets) — the tree pages are already on the device — and is
// reconstituted from that record over a reopened pool without rebuilding.
// Each structure appends and reads its own record next to its fields
// (AppendRecord and the open function of its family row); the primitives
// both sides share live here, and the engine frames the records (and
// encodes the store and dictionaries with the same primitives) in
// internal/engine/catalog.go. All integers are uvarints unless noted.

// CatWriter appends catalog fields to Buf.
type CatWriter struct{ Buf []byte }

func (w *CatWriter) U8(v byte)        { w.Buf = append(w.Buf, v) }
func (w *CatWriter) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *CatWriter) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}
func (w *CatWriter) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// PathTable writes the table's paths in PathID order (#paths, then each as
// #syms + syms), so re-interning them in order reproduces the ids. The
// count and the paths come from one pass under the table's latch: the
// table is shared with writers that intern paths concurrently (a Backup
// encodes a catalog outside the writer lock), and a count read apart from
// the paths would not frame them.
func (w *CatWriter) PathTable(t *pathdict.PathTable) {
	var paths []pathdict.Path
	t.All(func(_ pathdict.PathID, p pathdict.Path) { paths = append(paths, p) })
	w.Uvarint(uint64(len(paths)))
	for _, p := range paths {
		w.Uvarint(uint64(len(p)))
		for _, s := range p {
			w.Uvarint(uint64(s))
		}
	}
}

// Tree writes the Meta of t, which CatReader.TreeMeta reads back.
func (w *CatWriter) Tree(t *btree.Tree) {
	m := t.Meta()
	w.Str(m.Name)
	w.Uvarint(uint64(uint32(m.Root)))
	w.Uvarint(uint64(m.Height))
	w.Uvarint(uint64(m.Pages))
	w.Uvarint(uint64(m.Entries))
}

// pathsOptions writes the flags a ROOTPATHS/DATAPATHS probe needs to
// decode rows the way they were encoded. KeepHead is not among them: a
// pruned index is never written (see openPaths).
func (w *CatWriter) pathsOptions(o PathsOptions) {
	var flags byte
	if o.RawIDs {
		flags |= 1
	}
	if o.PathIDKeys {
		flags |= 2
	}
	w.U8(flags)
}

// idSet writes the members of set in ascending order.
func idSet[K ~int32 | ~int64](w *CatWriter, set map[K]bool) {
	ids := make([]K, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uvarint(uint64(id))
	}
}

// ErrCorruptCatalog is matched (errors.Is) by every error a CatReader
// records.
var ErrCorruptCatalog = errors.New("index: corrupt catalog")

// CatReader consumes catalog fields. The first failure sticks: every later
// read returns a zero value, so decoders check Err once per record. No
// count read from the input sizes an allocation before it is checked
// against the bytes left.
type CatReader struct {
	b   []byte
	err error
}

func NewCatReader(b []byte) *CatReader { return &CatReader{b: b} }

// Err returns the first failure, nil while the input has decoded cleanly.
func (r *CatReader) Err() error { return r.err }

// Len returns the number of unread bytes — the bound on any count.
func (r *CatReader) Len() uint64 { return uint64(len(r.b)) }

func (r *CatReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptCatalog}, args...)...)
	}
}
func (r *CatReader) U8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.Fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
func (r *CatReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}
func (r *CatReader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if r.Len() < n {
		r.Fail("truncated string (%d bytes)", n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
func (r *CatReader) Bool() bool { return r.U8() != 0 }

func (r *CatReader) path() pathdict.Path {
	n := r.Uvarint()
	if r.err != nil || n > r.Len() {
		r.Fail("bad path length %d", n)
		return nil
	}
	p := make(pathdict.Path, 0, n)
	for i := uint64(0); i < n; i++ {
		p = append(p, pathdict.Sym(r.Uvarint()))
	}
	return p
}

// PathTable reads what CatWriter.PathTable wrote.
func (r *CatReader) PathTable() *pathdict.PathTable {
	t := pathdict.NewPathTable()
	n := r.Uvarint()
	if r.err != nil || n > r.Len() {
		r.Fail("bad path count %d", n)
		return t
	}
	for i := uint64(0); i < n; i++ {
		t.Intern(r.path())
	}
	return t
}

// TreeMeta reads what CatWriter.Tree wrote.
func (r *CatReader) TreeMeta() btree.Meta {
	return btree.Meta{
		Name:    r.Str(),
		Root:    storage.PageID(int32(uint32(r.Uvarint()))),
		Height:  int(r.Uvarint()),
		Pages:   int64(r.Uvarint()),
		Entries: int64(r.Uvarint()),
	}
}

func (r *CatReader) tree(pool *storage.Pool) *btree.Tree { return btree.Open(pool, r.TreeMeta()) }

func (r *CatReader) pathsOptions() PathsOptions {
	flags := r.U8()
	return PathsOptions{RawIDs: flags&1 != 0, PathIDKeys: flags&2 != 0}
}

func readIDSet[K ~int32 | ~int64](r *CatReader) map[K]bool {
	set := map[K]bool{}
	for i, n := uint64(0), r.Uvarint(); i < n && r.err == nil; i++ {
		set[K(r.Uvarint())] = true
	}
	return set
}
