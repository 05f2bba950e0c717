package index

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/idlist"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// ASR implements Access Support Relations [Kemper/Moerkotte] adapted to XML
// as the paper does: one relation per distinct schema path, materialised for
// all paths present in the data (to support ad hoc queries), holding the
// node ids along each path instance in separate, uncompressed columns, with
// one B+-tree per relation on (LeafValue, HeadId).
//
// The two structural differences from DATAPATHS that the paper's Section
// 5.2.6 measures are reproduced exactly:
//
//   - the schema path is encoded in the relation *name*, so a // that
//     matches m concrete paths costs m separate relation accesses instead
//     of one unified-index range scan, and
//   - the id columns cannot be differentially encoded.
type ASR struct {
	tables map[pathdict.PathID]*btree.Tree
	ptab   *pathdict.PathTable
	rootSets
	dict *pathdict.Dict
}

// rootSets is the root bookkeeping behind the rooted-only scans of ASR and
// JoinIndex.
type rootSets struct {
	rooted map[pathdict.PathID]bool // some instance starts at a document root
	roots  map[int64]bool           // document root ids
}

func newRootSets(store *xmldb.Store) rootSets {
	s := rootSets{rooted: map[pathdict.PathID]bool{}, roots: map[int64]bool{}}
	for _, d := range store.Docs {
		s.roots[d.Root.ID] = true
	}
	return s
}

// BuildASR constructs one relation per distinct schema path.
func BuildASR(pool *storage.Pool, store *xmldb.Store, dict *pathdict.Dict) (*ASR, error) {
	a := &ASR{
		tables:   map[pathdict.PathID]*btree.Tree{},
		ptab:     pathdict.NewPathTable(),
		rootSets: newRootSets(store),
		dict:     dict,
	}
	perPath := map[pathdict.PathID][]btree.Entry{}
	pathrel.EmitAllPaths(store, dict, func(r pathrel.Row) {
		if r.HeadID == 0 {
			return // virtual-root rows belong to the unified indices only
		}
		id := a.ptab.Intern(r.Path)
		if a.roots[r.HeadID] {
			a.rooted[id] = true
		}
		key := pathdict.AppendValueField(nil, r.HasValue, r.Value)
		key = pathdict.AppendID(key, r.HeadID)
		// Separate uncompressed id columns: head then the rest.
		val := pathdict.AppendID(nil, r.HeadID)
		val = idlist.EncodeRaw(val, r.IDs)
		perPath[id] = append(perPath[id], btree.Entry{Key: key, Val: val})
	})
	var err error
	a.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		if err != nil {
			return
		}
		a.tables[id], err = bulk(pool, "ASR/"+p.String(dict), perPath[id])
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Paths exposes the relation registry (one relation per entry).
func (a *ASR) Paths() *pathdict.PathTable { return a.ptab }

// NumTables returns the number of materialised relations (the paper reports
// 902 for XMark, 235 for DBLP).
func (a *ASR) NumTables() int { return len(a.tables) }

// MatchingPaths enumerates the concrete schema paths matching a linear
// pattern. With rootedOnly, only paths with document-root-headed instances
// qualify (for root-anchored patterns).
func (a *ASR) MatchingPaths(pat []pathdict.PStep, rootedOnly bool) []pathdict.PathID {
	var out []pathdict.PathID
	a.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		if rootedOnly && !a.rooted[id] {
			return
		}
		if pathdict.MatchPath(pat, p) {
			out = append(out, id)
		}
	})
	return out
}

// ProbeValue scans the relation for path id by leaf value, streaming the
// full id tuple (head first) of each instance. With rootedOnly, instances
// not headed at a document root are skipped. fn's slice is reused.
func (a *ASR) ProbeValue(id pathdict.PathID, hasValue bool, value string, rootedOnly bool, fn func(ids []int64) error) (int, error) {
	prefix := pathdict.AppendValueField(nil, hasValue, value)
	return a.scan(id, prefix, rootedOnly, fn)
}

// ProbeBound scans the relation for instances headed at headID with a
// matching value — the index-nested-loop probe.
func (a *ASR) ProbeBound(id pathdict.PathID, headID int64, hasValue bool, value string, fn func(ids []int64) error) (int, error) {
	prefix := pathdict.AppendValueField(nil, hasValue, value)
	prefix = pathdict.AppendID(prefix, headID)
	return a.scan(id, prefix, false, fn)
}

func (a *ASR) scan(id pathdict.PathID, prefix []byte, rootedOnly bool, fn func(ids []int64) error) (int, error) {
	t, ok := a.tables[id]
	if !ok {
		return 0, fmt.Errorf("index: ASR relation %d does not exist", id)
	}
	it, err := t.SeekPrefix(prefix)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	var ids []int64
	for ; it.Valid(); it.Next() {
		ids, err = idlist.DecodeRaw(ids[:0], it.ValueRef())
		if err != nil {
			return rows, err
		}
		if rootedOnly && !a.roots[ids[0]] {
			continue
		}
		rows++
		if err := fn(ids); err != nil {
			return rows, err
		}
	}
	return rows, it.Err()
}

func (a *ASR) Kind() Kind { return KindASR }

// trees lists the relation trees in PathID order.
func (a *ASR) trees() []*btree.Tree {
	out := make([]*btree.Tree, 0, len(a.tables))
	a.ptab.All(func(id pathdict.PathID, _ pathdict.Path) { out = append(out, a.tables[id]) })
	return out
}

// Space reports the combined footprint of all relations.
func (a *ASR) Space() Space { return treeSpace(KindASR, a.trees()...) }

func (a *ASR) WalkPages(fn func(storage.PageID) error) error { return walkTrees(fn, a.trees()...) }

// AppendRecord writes the ASR record: the registry path table, one
// relation tree per path in PathID order, #rooted + the ids of the paths
// with a document-root-headed instance, #roots + the document root ids
// (both ascending).
func (a *ASR) AppendRecord(w *CatWriter) {
	w.PathTable(a.ptab)
	for _, t := range a.trees() {
		w.tree(t)
	}
	idSet(w, a.rooted)
	idSet(w, a.roots)
}

func openASR(r *CatReader, s Site) Structure {
	a := &ASR{tables: map[pathdict.PathID]*btree.Tree{}, ptab: r.PathTable(), dict: s.Dict}
	for id := 0; id < a.ptab.Len(); id++ {
		a.tables[pathdict.PathID(id)] = r.tree(s.Pool)
	}
	a.rootSets = rootSets{rooted: readIDSet[pathdict.PathID](r), roots: readIDSet[int64](r)}
	return a
}
