package index

import (
	"encoding/binary"

	"repro/internal/btree"
	"repro/internal/idlist"
	"repro/internal/pathdict"
	"repro/internal/pathrel"
	"repro/internal/storage"
)

// dgChunk bounds the number of ids stored per DataGuide posting-list entry
// so that large extents never exceed the B+-tree's entry size limit.
const dgChunk = 192

// DataGuide is the structure-only summary baseline [Goldman/Widom]: for
// every distinct root-originating schema path it stores the extent — the
// ids of the nodes at the end of the path (the "last ID of the IdList for
// every root-to-leaf prefix path", Figure 3). It indexes SchemaPath only;
// values live in the separate Edge value index, which is exactly the
// separation the paper's Figure 11 punishes.
//
// Keyed by [pathLen][path][chunkNo]; extents are split into chunks.
type DataGuide struct {
	tree     *btree.Tree
	dict     *pathdict.Dict
	registry // rooted paths, for // expansion over the summary
}

// prepareDataGuide gathers the summary's extents and encodes them in
// chunks. The registered rooted paths double as the DataGuide's summary
// graph: patterns with // are answered by enumerating the matching summary
// paths, as Lore's DataGuide traversal would.
func prepareDataGuide(s Site) (load, error) {
	ptab := pathdict.NewPathTable()
	var extents [][]int64 // by path id
	pathrel.Emit(s.Store, s.Dict, nil, false, func(r pathrel.Row) {
		if r.HasValue {
			return // structure only
		}
		id := ptab.Intern(r.Path)
		if int(id) == len(extents) {
			extents = append(extents, nil)
		}
		extents[id] = append(extents[id], r.LastID())
	})
	var entries []btree.Entry
	ptab.All(func(id pathdict.PathID, p pathdict.Path) {
		ext := extents[id]
		for chunk := 0; chunk*dgChunk < len(ext) || chunk == 0; chunk++ {
			lo := chunk * dgChunk
			hi := lo + dgChunk
			if hi > len(ext) {
				hi = len(ext)
			}
			key := binary.BigEndian.AppendUint32(dgPath(nil, p), uint32(chunk))
			entries = append(entries, btree.Entry{Key: key, Val: idlist.EncodeDelta(nil, ext[lo:hi])})
		}
	})
	sortByKey(entries)
	return func(ld *loader) (any, error) {
		tree, err := ld.bulk("DataGuide", entries)
		if err != nil {
			return nil, err
		}
		return &DataGuide{tree: tree, dict: s.Dict, registry: registry{ptab: ptab}}, nil
	}, nil
}

// dgPath appends the key columns ahead of the chunk number.
func dgPath(dst []byte, p pathdict.Path) []byte {
	return pathdict.AppendPath(binary.BigEndian.AppendUint16(dst, uint16(len(p))), p)
}

// Extent returns the ids at the end of the exact rooted path, streaming
// them to fn. Patterns with // must be expanded to concrete paths first
// (see MatchingPaths).
func (dg *DataGuide) Extent(sc *Scratch, p pathdict.Path, fn func(id int64) error) (int, error) {
	sc.Prefix = dgPath(sc.Prefix[:0], p)
	ids := 0
	_, err := dg.tree.ScanPrefix(&sc.PrefixScan, func(_, val []byte) error {
		var err error
		if sc.ids, err = idlist.DecodeDeltaInto(sc.ids[:0], val); err != nil {
			return corrupt(err)
		}
		for _, id := range sc.ids {
			ids++
			if err := fn(id); err != nil {
				return err
			}
		}
		return nil
	})
	return ids, err
}

// MatchingPaths enumerates the rooted summary paths that match a linear
// pattern — the DataGuide-as-automaton traversal that handles //. The
// summary's tree is keyed by path, so it hands back the paths themselves
// where the registry hands back their ids.
func (dg *DataGuide) MatchingPaths(pat []pathdict.PStep) []pathdict.Path {
	var out []pathdict.Path
	for _, id := range dg.registry.MatchingPaths(pat, false) {
		out = append(out, dg.ptab.Path(id))
	}
	return out
}

func (dg *DataGuide) Kind() Kind { return KindDataGuide }

// Space reports the index footprint.
func (dg *DataGuide) Space() Space { return treeSpace(KindDataGuide, dg.tree) }

func (dg *DataGuide) WalkPages(fn func(storage.PageID) error) error { return dg.tree.Walk(fn) }

// AppendRecord writes the DataGuide record: summary path table, tree.
func (dg *DataGuide) AppendRecord(w *CatWriter) {
	w.PathTable(dg.ptab)
	w.Tree(dg.tree)
}

func openDataGuide(r *CatReader, s Site) Structure {
	return &DataGuide{registry: registry{ptab: r.PathTable()}, tree: r.tree(s.Pool), dict: s.Dict}
}
