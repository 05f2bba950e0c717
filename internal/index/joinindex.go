package index

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// JoinIndex implements Valduriez-style join indices adapted to XML paths as
// the paper describes (Section 5.2.6): per distinct schema path a relation
// of only the *endpoint* id pairs, with two B+-trees — a forward index
// probed by head id and a backward index probed by leaf value / tail id.
// Because only endpoints are stored, recovering an interior (branch-point)
// node requires composing the join indices of the two halves of the path,
// which is the extra join work (and the doubled index space) the paper
// charges against JI.
type JoinIndex struct {
	fwd map[pathdict.PathID]*btree.Tree // [head][valuefield][tail] -> nil
	bwd map[pathdict.PathID]*btree.Tree // [valuefield][tail][head] -> nil
	registry
	dict *pathdict.Dict
}

// BuildJoinIndex constructs both B+-trees for every distinct schema path.
func BuildJoinIndex(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict) (*JoinIndex, error) {
	j := &JoinIndex{
		fwd:      map[pathdict.PathID]*btree.Tree{},
		bwd:      map[pathdict.PathID]*btree.Tree{},
		registry: newRootedRegistry(store),
		dict:     dict,
	}
	fwdPer := map[pathdict.PathID][]btree.Entry{}
	bwdPer := map[pathdict.PathID][]btree.Entry{}
	pathrel.Emit(store, dict, nil, true, func(r pathrel.Row) {
		if r.HeadID == 0 {
			return
		}
		id := j.ptab.Intern(r.Path)
		if j.roots[r.HeadID] {
			j.rooted[id] = true
		}
		tail := r.LastID()
		fkey := pathdict.AppendID(nil, r.HeadID)
		fkey = pathdict.AppendValueField(fkey, r.HasValue, r.Value)
		fkey = pathdict.AppendID(fkey, tail)
		fwdPer[id] = append(fwdPer[id], btree.Entry{Key: fkey})

		bkey := pathdict.AppendValueField(nil, r.HasValue, r.Value)
		bkey = pathdict.AppendID(bkey, tail)
		bkey = pathdict.AppendID(bkey, r.HeadID)
		bwdPer[id] = append(bwdPer[id], btree.Entry{Key: bkey})
	})
	var err error
	j.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		if err != nil {
			return
		}
		name := p.String(dict)
		if j.fwd[id], err = bulk(pool, "JI/fwd/"+name, fwdPer[id]); err != nil {
			return
		}
		j.bwd[id], err = bulk(pool, "JI/bwd/"+name, bwdPer[id])
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// IsDocRoot reports whether id is a document root.
func (j *JoinIndex) IsDocRoot(id int64) bool { return j.roots[id] }

// NumTables returns the number of materialised relations.
func (j *JoinIndex) NumTables() int { return len(j.fwd) }

// BwdByValue scans the backward index by leaf value, yielding (tail, head)
// pairs. With rootedOnly, pairs whose head is not a document root are
// skipped.
func (j *JoinIndex) BwdByValue(sc *Scratch, id pathdict.PathID, hasValue bool, value string, rootedOnly bool, fn func(tail, head int64) error) (int, error) {
	sc.Prefix = pathdict.AppendValueField(sc.Prefix[:0], hasValue, value)
	return j.scanPairs(sc, j.bwd[id], id, rootedOnly, fn)
}

// BwdByTail probes the backward index by (value, tail), yielding the heads
// of instances ending at tail — the probe that verifies a candidate node
// against the upper half of a path.
func (j *JoinIndex) BwdByTail(sc *Scratch, id pathdict.PathID, hasValue bool, value string, tail int64, fn func(head int64) error) (int, error) {
	sc.Prefix = pathdict.AppendID(pathdict.AppendValueField(sc.Prefix[:0], hasValue, value), tail)
	return j.scanPairs(sc, j.bwd[id], id, false, func(head, _ int64) error { return fn(head) })
}

// FwdByHead probes the forward index by head id (the index-nested-loop
// probe), yielding tails with a matching value.
func (j *JoinIndex) FwdByHead(sc *Scratch, id pathdict.PathID, headID int64, hasValue bool, value string, fn func(tail int64) error) (int, error) {
	sc.Prefix = pathdict.AppendValueField(pathdict.AppendID(sc.Prefix[:0], headID), hasValue, value)
	return j.scanPairs(sc, j.fwd[id], id, false, func(tail, _ int64) error { return fn(tail) })
}

// scanPairs scans relation id's tree t under sc.Prefix and decodes the 8 or
// 16 key bytes after the prefix as one or two ids. fn receives (first,
// second); second is 0 when only one id follows the prefix.
func (j *JoinIndex) scanPairs(sc *Scratch, t *btree.Tree, id pathdict.PathID, rootedOnly bool, fn func(a, b int64) error) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("index: JI relation %d does not exist", id)
	}
	skipped := 0
	rows, err := t.ScanPrefix(&sc.PrefixScan, func(key, _ []byte) error {
		rest := key[len(sc.Prefix):]
		if len(rest) != 8 && len(rest) != 16 {
			return corrupt(fmt.Errorf("JI key tail of %d bytes", len(rest)))
		}
		a, rest, _ := pathdict.DecodeID(rest)
		var b int64
		if len(rest) == 8 {
			b, _, _ = pathdict.DecodeID(rest)
		}
		if rootedOnly && !j.roots[b] {
			skipped++
			return nil
		}
		return fn(a, b)
	})
	return rows - skipped, err
}

func (j *JoinIndex) Kind() Kind { return KindJoinIndex }

// trees lists each path's forward then backward tree, in PathID order.
func (j *JoinIndex) trees() []*btree.Tree {
	out := make([]*btree.Tree, 0, 2*len(j.fwd))
	j.ptab.All(func(id pathdict.PathID, _ pathdict.Path) { out = append(out, j.fwd[id], j.bwd[id]) })
	return out
}

// Space reports the combined footprint of all forward and backward trees.
func (j *JoinIndex) Space() Space { return treeSpace(KindJoinIndex, j.trees()...) }

func (j *JoinIndex) WalkPages(fn func(storage.PageID) error) error {
	return walkTrees(fn, j.trees()...)
}

// AppendRecord writes the JoinIndex record, laid out as ASR's with two
// trees per path: forward, then backward.
func (j *JoinIndex) AppendRecord(w *CatWriter) {
	w.PathTable(j.ptab)
	for _, t := range j.trees() {
		w.tree(t)
	}
	idSet(w, j.rooted)
	idSet(w, j.roots)
}

func openJoinIndex(r *CatReader, s Site) Structure {
	j := &JoinIndex{fwd: map[pathdict.PathID]*btree.Tree{}, bwd: map[pathdict.PathID]*btree.Tree{}, registry: registry{ptab: r.PathTable()}, dict: s.Dict}
	for id := 0; id < j.ptab.Len(); id++ {
		j.fwd[pathdict.PathID(id)] = r.tree(s.Pool)
		j.bwd[pathdict.PathID(id)] = r.tree(s.Pool)
	}
	j.rooted, j.roots = readIDSet[pathdict.PathID](r), readIDSet[int64](r)
	return j
}
