package index

import (
	"encoding/binary"
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
	registry
	dict *pathdict.Dict
}

// registry is a structure's own table of the distinct schema paths it
// indexes — one relation per entry for ASR and JoinIndex, the normalised
// "path" relation of XRel, the DataGuide's summary — with the root
// bookkeeping behind the rooted-only scans of ASR and JoinIndex, whose
// paths start anywhere (the sets stay nil for the other two, whose paths
// are all rooted and which never ask).
type registry struct {
	ptab   *pathdict.PathTable
	rooted map[pathdict.PathID]bool // some instance starts at a document root
	roots  map[int64]bool           // document root ids
}

// newRootedRegistry is an empty registry that tracks the store's roots.
func newRootedRegistry(store *xmldb.Store) registry {
	r := registry{ptab: pathdict.NewPathTable(), rooted: map[pathdict.PathID]bool{}, roots: map[int64]bool{}}
	for _, d := range store.Docs {
		r.roots[d.Root.ID] = true
	}
	return r
}

// Paths exposes the path table.
func (r *registry) Paths() *pathdict.PathTable { return r.ptab }

// MatchingPaths resolves a linear pattern against the path table into the
// ids of the concrete schema paths matching it — the step that turns a //
// into several equality conditions, each costing one separate lookup. With
// rootedOnly, only paths with a document-root-headed instance qualify (for
// root-anchored patterns).
func (r *registry) MatchingPaths(pat []pathdict.PStep, rootedOnly bool) []pathdict.PathID {
	var out []pathdict.PathID
	r.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		if (!rootedOnly || r.rooted[id]) && pathdict.MatchPath(pat, p) {
			out = append(out, id)
		}
	})
	return out
}

// prepareASR emits the rows of one relation per distinct schema path and
// sorts each relation; its load bulk-loads them in path id order.
func prepareASR(s Site) (load, error) {
	a := &ASR{tables: map[pathdict.PathID]*btree.Tree{}, registry: newRootedRegistry(s.Store), dict: s.Dict}
	entries := a.rows(s)
	perPath := byPathID(entries, a.ptab.Len(), 4)
	return func(ld *loader) (any, error) {
		var err error
		a.ptab.All(func(id pathdict.PathID, p pathdict.Path) {
			if err == nil {
				a.tables[id], err = ld.bulk("ASR/"+p.String(s.Dict), perPath[id])
			}
		})
		if err != nil {
			return nil, err
		}
		return a, nil
	}, nil
}

// rows emits the relations' rows from the site's store, registering their
// paths. Until byPathID has grouped them, keys lead with their path's id
// and end in the row's emission number: equal keys are common (one head,
// one value, several tails) and keep emission order. Within a path a key
// is a value field (self-delimiting) and an id, so no key is a prefix of
// another and the number decides only between equal keys.
func (a *ASR) rows(s Site) []btree.Entry {
	entries := make([]btree.Entry, 0, pathrel.Count(s.Store, true)-pathrel.Count(s.Store, false))
	var ar arena
	var key, val []byte
	pathrel.Emit(s.Store, s.Dict, nil, true, func(r pathrel.Row) {
		if r.HeadID == 0 {
			return // virtual-root rows belong to the unified indices only
		}
		id := a.ptab.Intern(r.Path)
		if a.roots[r.HeadID] {
			a.rooted[id] = true
		}
		key = appendPathID(key[:0], id)
		key = pathdict.AppendValueField(key, r.HasValue, r.Value)
		key = pathdict.AppendID(key, r.HeadID)
		key = binary.BigEndian.AppendUint32(key, uint32(len(entries)))
		// Separate uncompressed id columns: head then the rest.
		val = pathdict.AppendID(val[:0], r.HeadID)
		val = idlist.EncodeRaw(val, r.IDs)
		entries = append(entries, btree.Entry{Key: ar.copy(key), Val: ar.copy(val)})
	})
	return entries
}

// NumTables returns the number of materialised relations (the paper reports
// 902 for XMark, 235 for DBLP).
func (a *ASR) NumTables() int { return len(a.tables) }

// ProbeValue scans the relation for path id by leaf value, streaming the
// full id tuple (head first) of each instance. With rootedOnly, instances
// not headed at a document root are skipped. fn's slice is reused.
func (a *ASR) ProbeValue(sc *Scratch, id pathdict.PathID, hasValue bool, value string, rootedOnly bool, fn func(ids []int64) error) (int, error) {
	sc.Prefix = pathdict.AppendValueField(sc.Prefix[:0], hasValue, value)
	return a.scan(sc, id, rootedOnly, fn)
}

// ProbeBound scans the relation for instances headed at headID with a
// matching value — the index-nested-loop probe.
func (a *ASR) ProbeBound(sc *Scratch, id pathdict.PathID, headID int64, hasValue bool, value string, fn func(ids []int64) error) (int, error) {
	sc.Prefix = pathdict.AppendID(pathdict.AppendValueField(sc.Prefix[:0], hasValue, value), headID)
	return a.scan(sc, id, false, fn)
}

func (a *ASR) scan(sc *Scratch, id pathdict.PathID, rootedOnly bool, fn func(ids []int64) error) (int, error) {
	t, ok := a.tables[id]
	if !ok {
		return 0, fmt.Errorf("index: ASR relation %d does not exist", id)
	}
	skipped := 0
	rows, err := t.ScanPrefix(&sc.PrefixScan, func(_, val []byte) error {
		var err error
		if sc.ids, err = idlist.DecodeRaw(sc.ids[:0], val); err != nil {
			return corrupt(err)
		}
		if len(sc.ids) == 0 {
			return corrupt(fmt.Errorf("empty ASR id tuple"))
		}
		if rootedOnly && !a.roots[sc.ids[0]] {
			skipped++
			return nil
		}
		return fn(sc.ids)
	})
	return rows - skipped, err
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
		w.Tree(t)
	}
	idSet(w, a.rooted)
	idSet(w, a.roots)
}

func openASR(r *CatReader, s Site) Structure {
	a := &ASR{tables: map[pathdict.PathID]*btree.Tree{}, registry: registry{ptab: r.PathTable()}, dict: s.Dict}
	for id := 0; id < a.ptab.Len(); id++ {
		a.tables[pathdict.PathID(id)] = r.tree(s.Pool)
	}
	a.rooted, a.roots = readIDSet[pathdict.PathID](r), readIDSet[int64](r)
	return a
}
