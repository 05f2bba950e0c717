package plan

import (
	"slices"

	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// matchMemo holds the assignments of the last (spec, schema path) pair a
// non-simple probe enumerated. The rows of a prefix scan arrive grouped by
// schema path, so the enumeration runs once per distinct path rather than
// once per index row, into storage the evaluator keeps.
type matchMemo struct {
	spec *probeSpec
	path pathdict.Path
	asn  []int // assignments, len(spec.pat) positions each
}

// matches returns the assignments of spec.pat on fwd, flat.
func (m *matchMemo) matches(spec *probeSpec, fwd pathdict.Path) []int {
	if m.spec != spec || !slices.Equal(m.path, fwd) {
		m.spec = spec
		m.path = append(m.path[:0], fwd...)
		m.asn = pathdict.EnumerateMatchesInto(m.asn[:0], spec.pat, fwd)
	}
	return m.asn
}

// pathRows is the row sink of a free ROOTPATHS/DATAPATHS probe: the
// destination block and compiled spec are staged on it before each index
// probe, so the callback handed to the index layer is created once and a
// steady-state probe performs no allocations at all.
type pathRows struct {
	out  *brel
	spec *probeSpec
	memo matchMemo
}

// onRow appends the bindings of one index row (a concrete forward path
// with the ids at every position) to the staged block. When the pattern
// has no interior // the binding is unique and computed in place; otherwise
// the general schema-match enumeration runs.
func (s *pathRows) onRow(fwd pathdict.Path, ids []int64) error {
	pat := s.spec.pat
	if s.spec.simple {
		k := len(pat)
		if len(fwd) < k || (!pat[0].Desc && len(fwd) != k) {
			return nil
		}
		row := s.out.newRow()
		base := len(fwd) - k
		for i := range row {
			row[i] = ids[base+i] // virtual-root rows: position i binds ids[i]
		}
		return nil
	}
	s.out.bindRows(s.memo.matches(s.spec, fwd), len(pat), ids)
	return nil
}

// pathsEval evaluates branches over a path index. ROOTPATHS answers each
// with a single FreeIndex lookup and cannot probe by head id, so its joins
// are always materialize-and-hash — the asymmetry behind Figure 12(d); its
// strategies row says canBound false and bound is never reached. DATAPATHS
// runs FreeIndex lookups through the virtual root (head 0) and BoundIndex
// lookups through real head ids, the latter being the index-nested-loop
// probe of Section 3.3.
//
// This is the fully batched hot path: rows are decoded once under the index
// layer (idlist.DecodeDeltaInto through a reused Scratch) and appended
// straight into the operator's block — free probes stage out, bound probes
// bout.
type pathsEval struct {
	ix *index.Paths
	sc index.Scratch
	pathRows
	bout *boundRel
	cb   func(fwd pathdict.Path, ids []int64) error
	bcb  func(fwd pathdict.Path, ids []int64) error
}

func newRPEval(env *Env) evaluator { return newPathsEval(env.RP) }
func newDPEval(env *Env) evaluator { return newPathsEval(env.DP) }

func newPathsEval(ix *index.Paths) evaluator {
	e := &pathsEval{ix: ix}
	e.cb = e.onRow
	e.bcb = e.onBoundRow
	return e
}

// onBoundRow appends the bindings of one bound-probe row. The bound
// pattern is anchored at the head (child axis at position 0), so row
// positions shift by one: position 0 is the head itself and position p > 0
// binds ids[p-1].
func (e *pathsEval) onBoundRow(fwd pathdict.Path, ids []int64) error {
	pat := e.spec.pat
	if e.spec.simple {
		if len(fwd) != len(pat) {
			return nil
		}
		row := e.bout.newRow()
		for i := range row {
			row[i] = ids[i]
		}
		return nil
	}
	e.bout.bindRows(e.memo.matches(e.spec, fwd), len(pat), ids, 1)
	return nil
}

// probe runs the staged spec's lookup headed at headID. An index built
// under SchemaPathId compression keeps no schema path to prefix-match, so
// only an exact spec — every step a child step, the first included — can
// be answered, by its path id; Probe reports anything else as unanswerable.
func (e *pathsEval) probe(headID int64, br *xpath.Branch, cb func(pathdict.Path, []int64) error, es *ExecStats) error {
	es.IndexLookups++
	var rows int
	var err error
	if e.ix.PathIDKeys() && e.spec.simple && !e.spec.pat[0].Desc {
		rows, err = e.ix.ProbePathID(&e.sc, headID, br.HasValue, br.Value, e.spec.suffix, cb)
	} else {
		rows, err = e.ix.Probe(&e.sc, headID, br.HasValue, br.Value, e.spec.suffix, cb)
	}
	es.RowsScanned += int64(rows)
	return err
}

func (e *pathsEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	e.out, e.spec = out, &n.spec
	return e.probe(0, n.branch, e.cb, es)
}

func (e *pathsEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	if !n.bspec.ok {
		return nil
	}
	e.bout, e.spec = out, &n.bspec
	for _, jid := range jids {
		es.INLProbes++
		out.beginGroup(jid)
		if err := e.probe(jid, n.branch, e.bcb, es); err != nil {
			return err
		}
	}
	return nil
}
