package plan

import (
	"repro/internal/pathdict"
)

// dgEval implements the DG+Edge strategy: the DataGuide answers the
// structural part (the extent of each concrete rooted path), the edge value
// index answers the content part, and the two are joined — the separated
// structure/value lookup whose cost Figure 11 isolates. Branch-point ids
// are then recovered by climbing the backward link index, one join per
// level (the paper's "5-way join for each branch").
type dgEval struct {
	env *Env
}

func (e *dgEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	pat := n.spec.pat
	br := *n.branch
	// DataGuide-as-summary: enumerate the concrete rooted paths matching
	// the pattern (one, unless the pattern has //).
	for _, concrete := range e.env.DG.MatchingPaths(pat) {
		// Structure: the extent of the concrete path.
		var leaves []int64
		es.IndexLookups++
		rows, err := e.env.DG.Extent(concrete, func(id int64) error {
			leaves = append(leaves, id)
			return nil
		})
		es.RowsScanned += int64(rows)
		if err != nil {
			return err
		}
		// Content: the value index, joined against the extent.
		if br.HasValue {
			matching := map[int64]struct{}{}
			es.IndexLookups++
			rows, err := e.env.Edge.ValueProbe(br.Steps[len(br.Steps)-1].Label, br.Value, func(id int64) error {
				matching[id] = struct{}{}
				return nil
			})
			es.RowsScanned += int64(rows)
			if err != nil {
				return err
			}
			tuples := make([][]int64, len(leaves))
			for i, id := range leaves {
				tuples[i] = []int64{id}
			}
			tuples = semiJoin(tuples, 0, matching, &es.Join)
			leaves = leaves[:0]
			for _, t := range tuples {
				leaves = append(leaves, t[0])
			}
		}
		if err := climbInto(e.env, es, pat, concrete, leaves, out); err != nil {
			return err
		}
	}
	return nil
}

// bound delegates to the edge forward-link walk, which is how a DataGuide
// plan would run an index-nested-loop join (the guide itself has no bound
// access path).
func (e *dgEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	ee := edgeEval{env: e.env}
	return ee.bound(n, jids, out, es)
}

// ifEval implements the IF+Edge strategy: the simulated Index Fabric
// answers (rooted path, leaf value) in a single lookup — its strength on
// fully specified single paths — but branch points still require
// backward-link climbs, and // requires expanding the pattern over the
// schema summary.
type ifEval struct {
	env *Env
}

func (e *ifEval) free(n *Node, out *brel, es *ExecStats) error {
	if !n.spec.ok {
		return nil
	}
	pat := n.spec.pat
	br := *n.branch
	for _, concrete := range e.env.Stats.MatchingRootedPaths(pat) {
		var leaves []int64
		es.IndexLookups++
		rows, err := e.env.IF.Probe(concrete, br.HasValue, br.Value, func(id int64) error {
			leaves = append(leaves, id)
			return nil
		})
		es.RowsScanned += int64(rows)
		if err != nil {
			return err
		}
		if err := climbInto(e.env, es, pat, concrete, leaves, out); err != nil {
			return err
		}
	}
	return nil
}

func (e *ifEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	ee := edgeEval{env: e.env}
	return ee.bound(n, jids, out, es)
}

// climbInto recovers the ids at every pattern position by climbing the
// backward link index from each leaf id along the known concrete path,
// appending one output row per assignment; a Parent lookup per level is
// exactly the join cascade the paper charges to the DataGuide and Index
// Fabric strategies.
func climbInto(env *Env, es *ExecStats, pat []pathdict.PStep, concrete pathdict.Path, leaves []int64, out *brel) error {
	asn := pathdict.EnumerateMatches(pat, concrete)
	if len(asn) == 0 || len(leaves) == 0 {
		return nil
	}
	minPos := len(concrete)
	for _, pos := range asn {
		if pos[0] < minPos {
			minPos = pos[0]
		}
	}
	chain := make([]int64, len(concrete))
	for _, leaf := range leaves {
		// Fill chain[minPos..len-1]; chain[i] is the node at path
		// position i above this leaf.
		chain[len(concrete)-1] = leaf
		cur := leaf
		okChain := true
		for p := len(concrete) - 2; p >= minPos; p-- {
			es.IndexLookups++
			pid, _, ok, err := env.Edge.Parent(cur)
			if err != nil {
				return err
			}
			if !ok || pid == 0 {
				okChain = false
				break
			}
			chain[p] = pid
			cur = pid
		}
		if !okChain {
			continue
		}
		for _, pos := range asn {
			row := out.newRow()
			for i, p := range pos {
				row[i] = chain[p]
			}
		}
	}
	return nil
}
