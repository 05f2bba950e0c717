package plan

import (
	"fmt"

	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// Build constructs the physical plan tree for pat under strat, with
// estimated cardinality and cost on every operator, without executing it.
// The eight strategies share the tree shape — probe leaves stitched by
// joins, a projection and a final dedup — except the structural-join
// extension, whose tree is a twig-wide structural join over region scans.
func Build(env *Env, strat Strategy, pat *xpath.Pattern) (*Tree, error) {
	if err := env.check(strat); err != nil {
		return nil, err
	}
	if strat == StructuralJoinPlan {
		return buildStructural(env, pat)
	}

	branches := coveringBranches(pat)
	order, ests := branchOrder(env, branches)
	factor, inlAllowed := env.inlThreshold()

	// Per-twig-node distinct-count memo: after an operator projects down
	// to its retained columns and deduplicates, the intermediate
	// cardinality is bounded by the product of the kept columns' distinct
	// node counts — the effect that collapses a branch-point column like
	// /site to a single row.
	counts := map[*xpath.Node]int64{}
	nodeCount := func(n *xpath.Node) int64 {
		if c, ok := counts[n]; ok {
			return c
		}
		c := nodeCountEst(env, n)
		counts[n] = c
		return c
	}
	distinctBound := func(cols map[*xpath.Node]bool) int64 {
		bound := int64(1)
		for c := range cols {
			cnt := nodeCount(c)
			if cnt <= 0 {
				return 0
			}
			if bound > (1<<40)/cnt {
				return 1 << 40 // saturate: no useful bound
			}
			bound *= cnt
		}
		return bound
	}

	var acc *Node
	cols := map[*xpath.Node]bool{}
	var accEst int64
	for k, oi := range order {
		br := branches[oi]
		est := ests[oi]
		// Columns any later operator still needs: the output node plus the
		// nodes of every branch not yet folded in. The operator projects
		// its result down to these and deduplicates (the relational plan's
		// DISTINCT on branch-point ids).
		keep := map[*xpath.Node]bool{pat.Output: true}
		for _, fi := range order[k+1:] {
			for _, n := range branches[fi].Nodes {
				keep[n] = true
			}
		}

		probe := &Node{
			Kind:    OpIndexProbe,
			Detail:  probeDetail(strat, br),
			EstRows: est,
			EstCost: probeCost(env, strat, br, est),
			ActRows: -1,
			branch:  &branches[oi],
		}

		if acc == nil {
			probe.keep = keep
			acc = probe
			for _, n := range br.Nodes {
				if keep[n] {
					cols[n] = true
				}
			}
			accEst = minEst(est, distinctBound(cols))
			probe.EstRows = accEst
			continue
		}

		// The join site: the deepest twig node of br already materialised.
		var jNode *xpath.Node
		jIdx := -1
		for i := len(br.Nodes) - 1; i >= 0; i-- {
			if cols[br.Nodes[i]] {
				jNode, jIdx = br.Nodes[i], i
				break
			}
		}
		if jNode == nil {
			return nil, fmt.Errorf("plan: branch %s shares no node with the intermediate result", br)
		}
		newNodes := br.Nodes[jIdx+1:]

		var n *Node
		switch {
		case len(newNodes) == 0:
			// Fully contained branch: a pure filter on the leaf column.
			n = &Node{
				Kind:     OpPathFilter,
				Detail:   fmt.Sprintf("semi-join on %s", br.Nodes[len(br.Nodes)-1].Label),
				EstRows:  minEst(accEst, est),
				Children: []*Node{acc, probe},
				jNode:    br.Nodes[len(br.Nodes)-1],
				branch:   &branches[oi],
			}
			n.EstCost = acc.EstCost + probe.EstCost + joinCost(accEst, est)
		case inlAllowed && strategies[strat].canBound && accEst > 0 && est > factor*accEst:
			// The branch is much less selective than the accumulated
			// relation: probe it bound, once per distinct join id, instead
			// of materialising it.
			n = &Node{
				Kind:     OpINLJoin,
				Detail:   fmt.Sprintf("%s at %s", probeDetail(strat, br), jNode.Label),
				EstRows:  minEst(accEst, est),
				Children: []*Node{acc},
				jNode:    jNode,
				branch:   &branches[oi],
			}
			n.EstCost = acc.EstCost + inlJoinCost(env, strat, accEst, est, nodeCount(jNode))
		default:
			n = &Node{
				Kind:     OpHashJoin,
				Detail:   fmt.Sprintf("at %s", jNode.Label),
				EstRows:  minEst(accEst, est),
				Children: []*Node{acc, probe},
				jNode:    jNode,
				branch:   &branches[oi],
			}
			n.EstCost = acc.EstCost + probe.EstCost + joinCost(accEst, est)
		}
		n.ActRows = -1
		n.keep = keep
		acc = n
		for _, c := range newNodes {
			cols[c] = true
		}
		for c := range cols {
			if !keep[c] {
				delete(cols, c)
			}
		}
		accEst = minEst(n.EstRows, distinctBound(cols))
		n.EstRows = accEst
	}
	if acc == nil {
		return nil, fmt.Errorf("plan: pattern has no branches")
	}

	project := &Node{
		Kind:     OpProject,
		Detail:   fmt.Sprintf("[%s]", pat.Output.Label),
		EstRows:  accEst,
		EstCost:  acc.EstCost + projectCost(accEst),
		ActRows:  -1,
		Children: []*Node{acc},
		output:   pat.Output,
	}
	dedup := &Node{
		Kind:     OpDedup,
		EstRows:  accEst,
		EstCost:  project.EstCost + dedupCost(accEst),
		ActRows:  -1,
		Children: []*Node{project},
	}
	t := &Tree{
		Strategy: strat,
		Pattern:  pat,
		Root:     dedup,
		EstCost:  dedup.EstCost,
		Branches: len(branches),
	}
	if err := t.finalize(env); err != nil {
		return nil, err
	}
	return t, nil
}

// buildStructural constructs the structural-join tree: one region scan per
// twig node under a single twig-wide structural join.
func buildStructural(env *Env, pat *xpath.Pattern) (*Tree, error) {
	var scans []*Node
	minRows := int64(-1)
	var rec func(n *xpath.Node)
	rec = func(n *xpath.Node) {
		est := regionScanEst(env, n)
		scans = append(scans, &Node{
			Kind:    OpRegionScan,
			Detail:  regionScanDetail(n),
			EstRows: est,
			EstCost: scanCost(est),
			ActRows: -1,
			twig:    n,
		})
		if minRows < 0 || est < minRows {
			minRows = est
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(pat.Root)
	if minRows < 0 {
		minRows = 0
	}
	sj := &Node{
		Kind:     OpStructuralJoin,
		Detail:   fmt.Sprintf("bottom-up + top-down structural semi-joins, output %s", pat.Output.Label),
		EstRows:  minRows,
		Children: scans,
		ActRows:  -1,
	}
	var cost float64
	var totalRows int64
	for _, s := range scans {
		cost += s.EstCost
		totalRows += s.EstRows
	}
	// Two linear semi-join passes over the candidate lists.
	sj.EstCost = cost + 2*float64(totalRows)*costSJTuple
	t := &Tree{
		Strategy: StructuralJoinPlan,
		Pattern:  pat,
		Root:     sj,
		EstCost:  sj.EstCost,
		Branches: len(pat.Branches()),
	}
	if err := t.finalize(env); err != nil {
		return nil, err
	}
	return t, nil
}

// nodeCountEst estimates the number of distinct data nodes a twig node's
// column can hold: the match count of its root-to-node trunk path,
// ignoring value conditions (an upper bound).
func nodeCountEst(env *Env, n *xpath.Node) int64 {
	if env.Stats == nil {
		return 0
	}
	var labels []string
	var descs []bool
	for c := n; c != nil; c = c.Parent {
		labels = append(labels, c.Label)
		descs = append(descs, c.Axis == xpath.Descendant)
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
		descs[i], descs[j] = descs[j], descs[i]
	}
	pat, ok := pathdict.CompileSteps(env.Dict, descs, labels)
	if !ok {
		return 0
	}
	return env.Stats.EstimateBranch(pat, false, "")
}

func regionScanDetail(n *xpath.Node) string {
	if n.HasValue {
		return fmt.Sprintf("value-index %s = '%s'", n.Label, n.Value)
	}
	return fmt.Sprintf("element-list %s", n.Label)
}

func minEst(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
