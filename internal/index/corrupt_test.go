package index

import (
	"errors"
	"testing"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
)

// TestProbesRejectShortEntries is ROADMAP aim 3 for the index layer's
// decoders — correct answer or typed error, never a panic or a wrong row:
// every probe method scans a hand-built tree whose one entry carries the
// probed columns and then stops short (a key that ends where the id column
// should start, a 3-byte Index Fabric key, an empty ASR id tuple, an
// undecodable IdList), and must report ErrCorruptEntry.
func TestProbesRejectShortEntries(t *testing.T) {
	dict := pathdict.NewDict()
	l := dict.Intern("l")
	ptab := pathdict.NewPathTable()
	pid := ptab.Intern(pathdict.Path{l})
	pool := storage.NewPool(storage.NewDisk(), 1<<20)
	tree := func(key, val []byte) *btree.Tree {
		t.Helper()
		tr, err := btree.BulkLoad(pool, "short", []btree.Entry{{Key: key, Val: val}})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	id7 := pathdict.AppendID(nil, 7)
	null := []byte{0x01} // the null LeafValue field
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	noID := func(int64) error { return nil }
	noIDs := func([]int64) error { return nil }
	noRow := func(pathdict.Path, []int64) error { return nil }
	badList := []byte{0xff} // a truncated varint

	for _, tc := range []struct {
		name  string
		probe func(sc *Scratch) (int, error)
	}{
		{"Paths.Probe/rp odd path tail", func(sc *Scratch) (int, error) {
			p := &Paths{tree: tree(cat(null, []byte{0x07}), nil)}
			return p.Probe(sc, 0, false, "", nil, noRow)
		}},
		{"Paths.Probe/dp bad id list", func(sc *Scratch) (int, error) {
			p := &Paths{tree: tree(cat(id7, null), badList), headed: true}
			return p.Probe(sc, 7, false, "", nil, noRow)
		}},
		{"Paths.ProbePathID", func(sc *Scratch) (int, error) {
			p := &Paths{tree: tree(appendPathID(cat(null), pid), badList), ptab: ptab, opts: PathsOptions{PathIDKeys: true}}
			return p.ProbePathID(sc, 0, false, "", pathdict.Path{l}, noRow)
		}},
		{"Edge.ValueProbe", func(sc *Scratch) (int, error) {
			e := &Edge{value: tree(pathdict.AppendValueField(appendSym(nil, l), true, ""), nil), dict: dict}
			return e.ValueProbe(sc, "l", "", noID)
		}},
		{"Edge.Children/any", func(sc *Scratch) (int, error) {
			e := &Edge{forward: tree(id7, nil), dict: dict}
			return e.Children(sc, 7, "", noID)
		}},
		{"Edge.Children/label", func(sc *Scratch) (int, error) {
			e := &Edge{forward: tree(appendSym(cat(id7), l), nil), dict: dict}
			return e.Children(sc, 7, "l", noID)
		}},
		{"Edge.Parent", func(sc *Scratch) (int, error) {
			e := &Edge{backward: tree(id7, []byte{0, 0, 7}), dict: dict}
			_, _, _, err := e.Parent(sc, 7)
			return 0, err
		}},
		{"IndexFabric.Probe/3-byte key", func(sc *Scratch) (int, error) {
			f := &IndexFabric{tree: tree([]byte{0x00, 0x00, 0x01}, nil), dict: dict}
			return f.Probe(sc, nil, false, "", noID)
		}},
		{"XRel.Probe", func(sc *Scratch) (int, error) {
			x := &XRel{tree: tree(cat(appendPathID(nil, pid), null), nil), registry: registry{ptab: ptab}}
			return x.Probe(sc, pid, false, "", noID)
		}},
		{"DataGuide.Extent", func(sc *Scratch) (int, error) {
			dg := &DataGuide{tree: tree(dgPath(nil, pathdict.Path{l}), badList), registry: registry{ptab: ptab}}
			return dg.Extent(sc, pathdict.Path{l}, noID)
		}},
		{"ASR.ProbeValue/empty value", func(sc *Scratch) (int, error) {
			a := &ASR{tables: map[pathdict.PathID]*btree.Tree{pid: tree(cat(null, id7), nil)}}
			return a.ProbeValue(sc, pid, false, "", true, noIDs)
		}},
		{"ASR.ProbeBound/empty value", func(sc *Scratch) (int, error) {
			a := &ASR{tables: map[pathdict.PathID]*btree.Tree{pid: tree(cat(null, id7), nil)}}
			return a.ProbeBound(sc, pid, 7, false, "", noIDs)
		}},
		{"JoinIndex.BwdByValue", func(sc *Scratch) (int, error) {
			j := &JoinIndex{bwd: map[pathdict.PathID]*btree.Tree{pid: tree(cat(null, []byte{0, 0, 7}), nil)}}
			return j.BwdByValue(sc, pid, false, "", false, func(_, _ int64) error { return nil })
		}},
		{"JoinIndex.BwdByTail", func(sc *Scratch) (int, error) {
			j := &JoinIndex{bwd: map[pathdict.PathID]*btree.Tree{pid: tree(cat(null, id7), nil)}}
			return j.BwdByTail(sc, pid, false, "", 7, noID)
		}},
		{"JoinIndex.FwdByHead", func(sc *Scratch) (int, error) {
			j := &JoinIndex{fwd: map[pathdict.PathID]*btree.Tree{pid: tree(cat(id7, null), nil)}}
			return j.FwdByHead(sc, pid, 7, false, "", noID)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.probe(new(Scratch)); !errors.Is(err, ErrCorruptEntry) {
				t.Fatalf("probe over a short entry returned %v, want ErrCorruptEntry", err)
			}
		})
	}
}
