package plan

import (
	"slices"

	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// climbEval is the leaf-then-climb evaluation DG+Edge, IF+Edge and XRel+Edge
// share: expand the branch pattern over a schema summary into concrete
// rooted paths, read each path's leaf ids from the strategy's own index,
// then recover the ids at every pattern position by climbing the backward
// link index, one join per level (the paper's "5-way join for each
// branch"). The strategies differ in the two hooks only. None has a bound
// access path of its own: an index-nested-loop join runs the held edge
// walker's forward-link bound probe.
type climbEval struct {
	edgeEval

	// expand lists the concrete rooted paths matching a pattern (one,
	// unless the pattern has //).
	expand func(pat []pathdict.PStep) []pathdict.Path
	// leaves streams the ids at the end of expand's i-th path p and
	// returns the index rows visited: one lookup.
	leaves func(i int, p pathdict.Path, br *xpath.Branch, fn func(int64) error) (int, error)
	// valueJoin: leaves reads structure only, so a branch's value is a
	// second lookup in the edge value index, semi-joined with the leaves.
	valueJoin bool
}

// newDGEval is the DG+Edge strategy: the DataGuide answers the structural
// part (the extent of each concrete rooted path), the edge value index the
// content part, and the two are joined — the separated structure/value
// lookup whose cost Figure 11 isolates.
func newDGEval(env *Env) evaluator {
	e := &climbEval{edgeEval: edgeEval{env: env}, expand: env.DG.MatchingPaths, valueJoin: true}
	e.leaves = func(_ int, p pathdict.Path, _ *xpath.Branch, fn func(int64) error) (int, error) {
		return env.DG.Extent(&e.sc, p, fn)
	}
	return e
}

// newIFEval is the IF+Edge strategy: the simulated Index Fabric answers
// (rooted path, leaf value) in a single lookup — its strength on fully
// specified single paths — but branch points still require backward-link
// climbs, and // requires expanding the pattern over the schema summary.
func newIFEval(env *Env) evaluator {
	e := &climbEval{edgeEval: edgeEval{env: env}, expand: env.Stats.MatchingRootedPaths}
	e.leaves = func(_ int, p pathdict.Path, br *xpath.Branch, fn func(int64) error) (int, error) {
		return env.IF.Probe(&e.sc, p, br.HasValue, br.Value, fn)
	}
	return e
}

func (e *climbEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	e.es = es
	pat, br := n.spec.pat, n.branch
	for i, concrete := range e.expand(pat) {
		e.a.reset(1)
		es.IndexLookups++
		rows, err := e.leaves(i, concrete, br, e.into(&e.a.data))
		es.RowsScanned += int64(rows)
		if err != nil {
			return err
		}
		if e.valueJoin && br.HasValue {
			if err := e.valueFilter(br, &e.a); err != nil {
				return err
			}
		}
		if err := e.climb(pat, concrete, e.a.data, out); err != nil {
			return err
		}
	}
	return nil
}

// climb recovers the ids at every pattern position by climbing the
// backward link index from each leaf id along the known concrete path,
// appending one output row per assignment; a Parent lookup per level is
// exactly the join cascade the paper charges to these strategies.
func (e *climbEval) climb(pat []pathdict.PStep, concrete pathdict.Path, leaves []int64, out *brel) error {
	e.asn = pathdict.EnumerateMatchesInto(e.asn[:0], pat, concrete)
	if len(e.asn) == 0 || len(leaves) == 0 {
		return nil
	}
	k, depth := len(pat), len(concrete)
	minPos := depth
	for i := 0; i < len(e.asn); i += k {
		minPos = min(minPos, e.asn[i])
	}
	// chain[i] is the node at path position i above the current leaf;
	// positions minPos..depth-1 are filled.
	e.aux = slices.Grow(e.aux[:0], depth)
	chain := e.aux[:depth]
nextLeaf:
	for _, leaf := range leaves {
		chain[depth-1] = leaf
		for p := depth - 2; p >= minPos; p-- {
			e.es.IndexLookups++
			pid, _, ok, err := e.env.Edge.Parent(&e.sc, chain[p+1])
			if err != nil {
				return err
			}
			if !ok || pid == 0 {
				continue nextLeaf
			}
			chain[p] = pid
		}
		out.bindRows(e.asn, k, chain)
	}
	return nil
}
