package plan

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// anchorPattern returns a copy of pat with the leading // removed, so that
// schema expansion enumerates each instance under exactly one concrete
// relation (the subpath from the step-0 binding to the leaf).
func anchorPattern(pat []pathdict.PStep) []pathdict.PStep {
	out := append([]pathdict.PStep(nil), pat...)
	out[0].Desc = false
	return out
}

// boundPattern compiles the branch below jIdx anchored at the head label.
func boundPattern(dict *pathdict.Dict, br xpath.Branch, jIdx int) ([]pathdict.PStep, bool) {
	sub := br.Steps[jIdx+1:]
	descs := make([]bool, 0, len(sub)+1)
	labels := make([]string, 0, len(sub)+1)
	descs = append(descs, false)
	labels = append(labels, br.Nodes[jIdx].Label)
	for _, s := range sub {
		descs = append(descs, s.Axis == xpath.Descendant)
		labels = append(labels, s.Label)
	}
	return pathdict.CompileSteps(dict, descs, labels)
}

// relSpan is one concrete relation of a probe pattern's expansion; its
// assignments are asn[lo:hi] of the evaluator's flat buffer, len(pat)
// positions each.
type relSpan struct {
	relID  pathdict.PathID
	lo, hi int
}

// asrEval implements the ASR strategy: every branch pattern is expanded
// against the schema into its matching concrete paths, and one relation is
// probed per concrete path. A // matching m concrete paths therefore costs
// m relation accesses — the Section 5.2.6 effect ("the cost of accessing
// many small indices is linear in the number of indices").
type asrEval struct {
	env  *Env
	sc   index.Scratch
	rels []relSpan
	asn  []int
}

func newASREval(env *Env) evaluator { return &asrEval{env: env} }

// matchingRels expands pat over the relation registry into e.rels, keeping
// only relations with at least one assignment — the per-relation expansion
// both ASR evaluations enumerate before probing.
func (e *asrEval) matchingRels(pat []pathdict.PStep, needRooted bool) {
	e.rels, e.asn = e.rels[:0], e.asn[:0]
	for _, relID := range e.env.ASR.MatchingPaths(pat, needRooted) {
		lo := len(e.asn)
		e.asn = pathdict.EnumerateMatchesInto(e.asn, pat, e.env.ASR.Paths().Path(relID))
		if len(e.asn) > lo {
			e.rels = append(e.rels, relSpan{relID: relID, lo: lo, hi: len(e.asn)})
		}
	}
}

func (e *asrEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	br, k := n.branch, len(n.spec.anchored)
	e.matchingRels(n.spec.anchored, n.spec.needRooted)
	for _, rm := range e.rels {
		es.IndexLookups++
		es.touchRelation(rm.relID)
		rows, err := e.env.ASR.ProbeValue(&e.sc, rm.relID, br.HasValue, br.Value, n.spec.needRooted, func(ids []int64) error {
			out.bindRows(e.asn[rm.lo:rm.hi], k, ids)
			return nil
		})
		es.RowsScanned += int64(rows)
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *asrEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	if !n.bspec.ok {
		return nil
	}
	br, k := n.branch, len(n.bspec.pat)
	e.matchingRels(n.bspec.pat, false)
	// Probe head-id-outer so each join id's rows land in one contiguous
	// group; a group is opened lazily on the first matching row, so ids
	// with no match have no group.
	for _, jid := range jids {
		grouped := false
		for _, rm := range e.rels {
			es.INLProbes++
			es.IndexLookups++
			es.touchRelation(rm.relID)
			rows, err := e.env.ASR.ProbeBound(&e.sc, rm.relID, jid, br.HasValue, br.Value, func(ids []int64) error {
				if !grouped {
					out.beginGroup(jid)
					grouped = true
				}
				// ASR rows carry the head at position 0; the output
				// columns are the positions below it.
				out.bindRows(e.asn[rm.lo:rm.hi], k, ids, 0)
				return nil
			})
			es.RowsScanned += int64(rows)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// jiEval implements the Join Index strategy. JI relations hold only
// (head, tail) endpoint pairs, so recovering the ids at interior pattern
// positions requires composing the join indices of adjacent position pairs —
// strictly more probes than ASR's single full-tuple relation, matching the
// paper's ranking in Figure 13.
type jiEval struct {
	env *Env
	scratch
	// segs holds the segment relations of the probe's (relation,
	// assignment) matches: one run of len(pat)-1 adjacent-pair relations
	// per match.
	segs []pathdict.PathID
}

func newJIEval(env *Env) evaluator { return &jiEval{env: env} }

// addSegments resolves the JI relation of each adjacent position pair of an
// assignment over a concrete path, appending them to e.segs.
func (e *jiEval) addSegments(concrete pathdict.Path, pos []int) error {
	for m := 0; m+1 < len(pos); m++ {
		sub := concrete[pos[m] : pos[m+1]+1]
		id, ok := e.env.JI.Paths().Lookup(sub)
		if !ok {
			return fmt.Errorf("plan: JI relation missing for subpath %s", sub.String(e.env.Dict))
		}
		e.segs = append(e.segs, id)
	}
	return nil
}

func (e *jiEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	br := n.branch
	needRooted := n.spec.needRooted
	anchored := n.spec.anchored
	k := len(anchored)
	for _, relID := range e.env.JI.MatchingPaths(anchored, needRooted) {
		concrete := e.env.JI.Paths().Path(relID)
		e.asn = pathdict.EnumerateMatchesInto(e.asn[:0], anchored, concrete)
		for asn := e.asn; len(asn) > 0; asn = asn[k:] {
			pos := asn[:k]
			if k == 1 {
				// Single-node pattern: the length-1 relation's rows are
				// (head == tail).
				segID, ok := e.env.JI.Paths().Lookup(concrete[pos[0] : pos[0]+1])
				if !ok {
					continue
				}
				es.IndexLookups++
				es.touchRelation(segID)
				rows, err := e.env.JI.BwdByValue(&e.sc, segID, br.HasValue, br.Value, needRooted, func(tail, _ int64) error {
					out.newRow()[0] = tail
					return nil
				})
				es.RowsScanned += int64(rows)
				if err != nil {
					return err
				}
				continue
			}
			e.segs = e.segs[:0]
			if err := e.addSegments(concrete, pos); err != nil {
				return err
			}
			// Seed from the last segment (it carries the value).
			cur, next := &e.a, &e.b // columns pos[m..k-1] as we extend left
			cur.reset(2)
			last := e.segs[k-2]
			es.IndexLookups++
			es.touchRelation(last)
			rows, err := e.env.JI.BwdByValue(&e.sc, last, br.HasValue, br.Value, false, func(tail, head int64) error {
				row := e.a.newRow()
				row[0], row[1] = head, tail
				return nil
			})
			es.RowsScanned += int64(rows)
			if err != nil {
				return err
			}
			// Compose upward: one BwdByTail probe per tuple per segment.
			for m := k - 3; m >= 0; m-- {
				next.reset(cur.width + 1)
				for r, crows := 0, cur.rows(); r < crows; r++ {
					t := cur.row(r)
					es.IndexLookups++
					es.touchRelation(e.segs[m])
					e.ids = e.ids[:0]
					rows, err := e.env.JI.BwdByTail(&e.sc, e.segs[m], false, "", t[0], e.into(&e.ids))
					es.RowsScanned += int64(rows)
					if err != nil {
						return err
					}
					for _, head := range e.ids {
						next.rowBefore(head, t)
					}
				}
				es.Join.TuplesIn += int64(cur.rows())
				es.Join.TuplesOut += int64(next.rows())
				cur, next = next, cur
			}
			for r, crows := 0, cur.rows(); r < crows; r++ {
				if t := cur.row(r); !needRooted || e.env.JI.IsDocRoot(t[0]) {
					out.appendRow(t)
				}
			}
		}
	}
	return nil
}

func (e *jiEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	if !n.bspec.ok {
		return nil
	}
	br, pat := n.branch, n.bspec.pat
	k, nseg := len(pat), len(pat)-1
	// A head-only pattern (nseg 0) resolves no segments and so has no
	// matches: the head alone adds no new columns.
	e.segs = e.segs[:0]
	for _, relID := range e.env.JI.MatchingPaths(pat, false) {
		concrete := e.env.JI.Paths().Path(relID)
		e.asn = pathdict.EnumerateMatchesInto(e.asn[:0], pat, concrete)
		for asn := e.asn; len(asn) > 0; asn = asn[k:] {
			if err := e.addSegments(concrete, asn[:k]); err != nil {
				return err
			}
		}
	}
	// Head-id-outer so each join id's rows form one contiguous group,
	// opened lazily on the first surviving composition.
	for _, jid := range jids {
		grouped := false
		for segs := e.segs; len(segs) > 0; segs = segs[nseg:] {
			es.INLProbes++
			// Compose downward from the head; the last segment carries
			// the value.
			cur, next := &e.a, &e.b // columns pos[0..s]
			cur.reset(1)
			cur.newRow()[0] = jid
			for s := 0; s < nseg && cur.rows() > 0; s++ {
				hasVal := br.HasValue && s == nseg-1
				next.reset(cur.width + 1)
				for r, crows := 0, cur.rows(); r < crows; r++ {
					t := cur.row(r)
					es.IndexLookups++
					es.touchRelation(segs[s])
					e.ids = e.ids[:0]
					rows, err := e.env.JI.FwdByHead(&e.sc, segs[s], t[len(t)-1], hasVal, br.Value, e.into(&e.ids))
					es.RowsScanned += int64(rows)
					if err != nil {
						return err
					}
					for _, tail := range e.ids {
						next.rowAfter(t, tail)
					}
				}
				cur, next = next, cur
			}
			for r, crows := 0, cur.rows(); r < crows; r++ {
				if !grouped {
					out.beginGroup(jid)
					grouped = true
				}
				copy(out.newRow(), cur.row(r)[1:])
			}
		}
	}
	return nil
}
