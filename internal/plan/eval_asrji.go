package plan

import (
	"fmt"

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

// relMatch pairs one concrete relation with the assignments of the probe
// pattern to its path — the per-relation expansion both ASR evaluations
// enumerate before probing.
type relMatch struct {
	relID pathdict.PathID
	asn   [][]int
}

// asrEval implements the ASR strategy: every branch pattern is expanded
// against the schema into its matching concrete paths, and one relation is
// probed per concrete path. A // matching m concrete paths therefore costs
// m relation accesses — the Section 5.2.6 effect ("the cost of accessing
// many small indices is linear in the number of indices").
type asrEval struct {
	env *Env
}

// matchingRels expands pat over the relation registry, keeping only
// relations with at least one assignment.
func (e *asrEval) matchingRels(pat []pathdict.PStep, needRooted bool) []relMatch {
	var rels []relMatch
	for _, relID := range e.env.ASR.MatchingPaths(pat, needRooted) {
		concrete := e.env.ASR.Paths().Path(relID)
		asn := pathdict.EnumerateMatches(pat, concrete)
		if len(asn) == 0 {
			continue
		}
		rels = append(rels, relMatch{relID: relID, asn: asn})
	}
	return rels
}

func (e *asrEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	br := *n.branch
	for _, rm := range e.matchingRels(n.spec.anchored, n.spec.needRooted) {
		es.IndexLookups++
		es.touchRelation(rm.relID)
		rows, err := e.env.ASR.ProbeValue(rm.relID, br.HasValue, br.Value, n.spec.needRooted, func(ids []int64) error {
			for _, pos := range rm.asn {
				row := out.newRow()
				for i, p := range pos {
					row[i] = ids[p]
				}
			}
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
	br := *n.branch
	rels := e.matchingRels(n.bspec.pat, false)
	// Probe head-id-outer so each join id's rows land in one contiguous
	// group; a group is opened lazily on the first matching row, so ids
	// with no match have no group (the old map-of-slices behaviour).
	for _, jid := range jids {
		grouped := false
		for _, rm := range rels {
			es.INLProbes++
			es.IndexLookups++
			es.touchRelation(rm.relID)
			rows, err := e.env.ASR.ProbeBound(rm.relID, jid, br.HasValue, br.Value, func(ids []int64) error {
				if !grouped {
					out.beginGroup(jid)
					grouped = true
				}
				for _, pos := range rm.asn {
					row := out.newRow()
					// ASR rows carry the head at position 0; the output
					// columns are the positions below it.
					for i, p := range pos[1:] {
						row[i] = ids[p]
					}
				}
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
}

// segments resolves the JI relation of each adjacent position pair of an
// assignment over a concrete path.
func (e *jiEval) segments(concrete pathdict.Path, pos []int) ([]pathdict.PathID, error) {
	segs := make([]pathdict.PathID, len(pos)-1)
	for m := 0; m+1 < len(pos); m++ {
		sub := concrete[pos[m] : pos[m+1]+1]
		id, ok := e.env.JI.Paths().Lookup(sub)
		if !ok {
			return nil, fmt.Errorf("plan: JI relation missing for subpath %s", sub.String(e.env.Dict))
		}
		segs[m] = id
	}
	return segs, nil
}

func (e *jiEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	br := *n.branch
	needRooted := n.spec.needRooted
	anchored := n.spec.anchored
	for _, relID := range e.env.JI.MatchingPaths(anchored, needRooted) {
		concrete := e.env.JI.Paths().Path(relID)
		for _, pos := range pathdict.EnumerateMatches(anchored, concrete) {
			k := len(pos)
			if k == 1 {
				// Single-node pattern: the length-1 relation's rows are
				// (head == tail).
				segID, ok := e.env.JI.Paths().Lookup(concrete[pos[0] : pos[0]+1])
				if !ok {
					continue
				}
				es.IndexLookups++
				es.touchRelation(segID)
				rows, err := e.env.JI.BwdByValue(segID, br.HasValue, br.Value, needRooted, func(tail, _ int64) error {
					out.newRow()[0] = tail
					return nil
				})
				es.RowsScanned += int64(rows)
				if err != nil {
					return err
				}
				continue
			}
			segs, err := e.segments(concrete, pos)
			if err != nil {
				return err
			}
			// Seed from the last segment (it carries the value).
			var partials [][]int64 // columns pos[m..k-1] as we extend left
			last := segs[k-2]
			es.IndexLookups++
			es.touchRelation(last)
			rows, err := e.env.JI.BwdByValue(last, br.HasValue, br.Value, false, func(tail, head int64) error {
				partials = append(partials, []int64{head, tail})
				return nil
			})
			es.RowsScanned += int64(rows)
			if err != nil {
				return err
			}
			// Compose upward: one BwdByTail probe per tuple per segment.
			for m := k - 3; m >= 0; m-- {
				var next [][]int64
				for _, t := range partials {
					es.IndexLookups++
					es.touchRelation(segs[m])
					rows, err := e.env.JI.BwdByTail(segs[m], false, "", t[0], func(head int64) error {
						next = append(next, prepend(head, t))
						return nil
					})
					es.RowsScanned += int64(rows)
					if err != nil {
						return err
					}
				}
				es.Join.TuplesIn += int64(len(partials))
				es.Join.TuplesOut += int64(len(next))
				partials = next
			}
			for _, t := range partials {
				if needRooted && !e.env.JI.IsDocRoot(t[0]) {
					continue
				}
				out.appendRow(t)
			}
		}
	}
	return nil
}

// jiMatch is one (relation, assignment) pair of a bound probe with the
// segment relations of each adjacent position pair pre-resolved.
type jiMatch struct {
	segs []pathdict.PathID
	k    int
}

func (e *jiEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	if !n.bspec.ok {
		return nil
	}
	br := *n.branch
	pat := n.bspec.pat
	var matches []jiMatch
	for _, relID := range e.env.JI.MatchingPaths(pat, false) {
		concrete := e.env.JI.Paths().Path(relID)
		for _, pos := range pathdict.EnumerateMatches(pat, concrete) {
			k := len(pos)
			if k < 2 {
				continue // the head alone adds no new columns
			}
			segs, err := e.segments(concrete, pos)
			if err != nil {
				return err
			}
			matches = append(matches, jiMatch{segs: segs, k: k})
		}
	}
	// Head-id-outer so each join id's rows form one contiguous group,
	// opened lazily on the first surviving composition.
	for _, jid := range jids {
		grouped := false
		for _, m := range matches {
			es.INLProbes++
			// Compose downward from the head.
			partials := [][]int64{{jid}} // columns pos[0..m]
			for s := 0; s+1 < m.k; s++ {
				hasVal, val := false, ""
				if s+1 == m.k-1 {
					hasVal, val = br.HasValue, br.Value
				}
				var next [][]int64
				for _, t := range partials {
					es.IndexLookups++
					es.touchRelation(m.segs[s])
					rows, err := e.env.JI.FwdByHead(m.segs[s], t[len(t)-1], hasVal, val, func(tail int64) error {
						nt := make([]int64, 0, len(t)+1)
						nt = append(nt, t...)
						nt = append(nt, tail)
						next = append(next, nt)
						return nil
					})
					es.RowsScanned += int64(rows)
					if err != nil {
						return err
					}
				}
				partials = next
				if len(partials) == 0 {
					break
				}
			}
			for _, t := range partials {
				if !grouped {
					out.beginGroup(jid)
					grouped = true
				}
				copy(out.newRow(), t[1:])
			}
		}
	}
	return nil
}
