// Package containment implements the structural-join machinery the paper
// cites as the alternative way to stitch twig matches (Section 6: Zhang et
// al.'s containment joins and Al-Khalifa et al.'s structural joins): nodes
// carry a region encoding (start, end, level) so that ancestor-descendant
// relationships are decided by interval containment, element candidate
// lists are stored in a B+-tree keyed by (label, start), and twigs are
// evaluated with stack-based structural semi-joins.
//
// The paper explicitly could not use these algorithms ("none of these
// algorithms has been implemented in commercial database systems"); this
// package exists as the extension experiment the paper leaves open —
// comparing its index family against a structural-join engine on equal
// substrate. See BenchmarkExtensionStructuralJoin.
package containment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// Region is the (start, end, level) encoding of one node [Zhang et al.].
// x is an ancestor of y iff x.Start < y.Start && y.End < x.End; the parent
// relationship additionally requires level difference 1.
type Region struct {
	Start, End int64
	Level      int32
	NodeID     int64
}

// Contains reports whether r strictly contains other (ancestor test).
func (r Region) Contains(other Region) bool {
	return r.Start < other.Start && other.End < r.End
}

// ParentOf reports whether r is the parent of other.
func (r Region) ParentOf(other Region) bool {
	return r.Contains(other) && r.Level+1 == other.Level
}

// Index is the containment-query index: the region table plus a B+-tree of
// element candidate lists keyed by (label designator, start) — the
// "element list" organisation of the structural join papers.
type Index struct {
	tree    *btree.Tree
	dict    *pathdict.Dict
	regions map[int64]Region // node id -> region
}

// Prepared is an index whose regions are assigned and whose element list
// is encoded and sorted, waiting for Load.
type Prepared struct {
	ix      *Index
	entries []btree.Entry
}

// Prepare assigns regions to every node of the store (document-order
// sweep) and encodes the element list; it reads the store and, for labels
// it already holds, the dictionary, and writes nothing else. Load then
// bulk-loads the element-list B+-tree.
func Prepare(store *xmldb.Store, dict *pathdict.Dict) *Prepared {
	ix := &Index{dict: dict, regions: map[int64]Region{}}
	var entries []btree.Entry
	counter := int64(0)
	var walk func(n *xmldb.Node, level int32)
	walk = func(n *xmldb.Node, level int32) {
		start := counter
		counter++
		for _, c := range n.Children {
			walk(c, level+1)
		}
		end := counter
		counter++
		r := Region{Start: start, End: end, Level: level, NodeID: n.ID}
		ix.regions[n.ID] = r

		sym := dict.Intern(n.Label)
		key := binary.BigEndian.AppendUint16(nil, uint16(sym))
		key = binary.BigEndian.AppendUint64(key, uint64(start))
		val := binary.BigEndian.AppendUint64(nil, uint64(end))
		val = binary.BigEndian.AppendUint32(val, uint32(level))
		val = binary.BigEndian.AppendUint64(val, uint64(n.ID))
		entries = append(entries, btree.Entry{Key: key, Val: val})
	}
	for _, d := range store.Docs {
		walk(d.Root, 1)
	}
	slices.SortFunc(entries, func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return &Prepared{ix: ix, entries: entries}
}

// Load bulk-loads the prepared element list into pool.
func (p *Prepared) Load(pool *storage.Pool) (*Index, error) {
	tree, err := btree.BulkLoad(pool, "Containment/elements", p.entries)
	if err != nil {
		return nil, err
	}
	p.ix.tree = tree
	return p.ix, nil
}

// Region returns the region of a node id.
func (ix *Index) Region(id int64) (Region, bool) {
	r, ok := ix.regions[id]
	return r, ok
}

// Candidates streams the regions of all nodes with the given label in
// document (start) order — the sorted input a structural join consumes.
// The probe prefix and iterator are drawn from ps.
func (ix *Index) Candidates(ps *btree.PrefixScan, label string, fn func(Region) error) (int, error) {
	sym, ok := ix.dict.Sym(label)
	if !ok {
		return 0, nil
	}
	ps.Prefix = binary.BigEndian.AppendUint16(ps.Prefix[:0], uint16(sym))
	return ix.tree.ScanPrefix(ps, func(key, val []byte) error {
		if len(key) != 10 || len(val) != 20 {
			return fmt.Errorf("containment: corrupt element entry (%d-byte key, %d-byte value)", len(key), len(val))
		}
		return fn(Region{
			Start:  int64(binary.BigEndian.Uint64(key[2:])),
			End:    int64(binary.BigEndian.Uint64(val[:8])),
			Level:  int32(binary.BigEndian.Uint32(val[8:12])),
			NodeID: int64(binary.BigEndian.Uint64(val[12:])),
		})
	})
}

// Space returns the element-list tree footprint in bytes.
func (ix *Index) Space() int64 { return ix.tree.Stats().Bytes }

// WalkPages visits every device page of the element-list tree.
func (ix *Index) WalkPages(fn func(storage.PageID) error) error { return ix.tree.Walk(fn) }

// SortRegions sorts regions by start; structural joins require it.
func SortRegions(rs []Region) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
}

// StructuralSemiJoinAnc returns the ancestors in anc (sorted by start) that
// contain at least one region of desc (sorted by start), using the
// stack-based single-pass algorithm of Al-Khalifa et al. With parentOnly,
// the level constraint restricts matches to parent-child pairs.
func StructuralSemiJoinAnc(anc, desc []Region, parentOnly bool) []Region {
	var out []Region
	var stack []Region
	emitted := make(map[int64]bool)
	ai, di := 0, 0
	for ai < len(anc) || len(stack) > 0 {
		var nextA *Region
		if ai < len(anc) {
			nextA = &anc[ai]
		}
		// Pop ancestors that end before the next event begins.
		if len(stack) > 0 && (di >= len(desc) || stack[len(stack)-1].End < desc[di].Start) &&
			(nextA == nil || stack[len(stack)-1].End < nextA.Start) {
			stack = stack[:len(stack)-1]
			continue
		}
		if di >= len(desc) {
			// No descendants left: nothing more can match.
			break
		}
		if nextA != nil && nextA.Start < desc[di].Start {
			stack = append(stack, *nextA)
			ai++
			continue
		}
		// Process descendant desc[di] against the stack.
		d := desc[di]
		di++
		for _, a := range stack {
			if !a.Contains(d) {
				continue
			}
			if parentOnly && a.Level+1 != d.Level {
				continue
			}
			if !emitted[a.NodeID] {
				emitted[a.NodeID] = true
				out = append(out, a)
			}
		}
	}
	SortRegions(out)
	return out
}

// StructuralSemiJoinDesc returns the descendants in desc that have at least
// one ancestor in anc (parent with parentOnly).
func StructuralSemiJoinDesc(anc, desc []Region, parentOnly bool) []Region {
	var out []Region
	var stack []Region
	ai, di := 0, 0
	for di < len(desc) {
		// Push ancestors starting before this descendant.
		for ai < len(anc) && anc[ai].Start < desc[di].Start {
			stack = append(stack, anc[ai])
			ai++
		}
		// Pop ancestors that ended before this descendant starts.
		for len(stack) > 0 && stack[len(stack)-1].End < desc[di].Start {
			stack = stack[:len(stack)-1]
		}
		d := desc[di]
		di++
		for i := len(stack) - 1; i >= 0; i-- {
			a := stack[i]
			if !a.Contains(d) {
				continue
			}
			if parentOnly && a.Level+1 != d.Level {
				continue
			}
			out = append(out, d)
			break
		}
	}
	return out
}
