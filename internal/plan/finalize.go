package plan

import (
	"fmt"

	"repro/internal/xpath"
)

// finalize precomputes the execution layout of a freshly built tree:
// operator ordinals (the index into a Runtime's state array), the
// column-to-twig-node mappings every join and projection needs, the
// retained-column projections, and the compiled probe patterns. Build
// calls it exactly once; afterwards the tree is immutable and executions
// never touch the dictionary or search a column list.
func (t *Tree) finalize(env *Env) error {
	ord := 0
	t.Walk(func(n *Node, _ int) {
		n.ord = ord
		ord++
		t.nodes = append(t.nodes, n)
	})
	if t.Root.Kind == OpStructuralJoin {
		return nil
	}
	// The root is always Dedup over Project.
	project := t.Root.Children[0]
	cols, err := t.layout(env, project.Children[0])
	if err != nil {
		return err
	}
	project.outCol = colIndex(cols, project.output)
	if project.outCol < 0 {
		return fmt.Errorf("plan: output node %q not covered", project.output.Label)
	}
	return nil
}

// layout computes n's post-projection column layout (one twig node per
// output column), filling the node's join/filter/projection indices on the
// way up.
func (t *Tree) layout(env *Env, n *Node) ([]*xpath.Node, error) {
	switch n.Kind {
	case OpIndexProbe:
		n.spec = compileSpec(env, *n.branch)
		return applyKeep(n, n.branch.Nodes), nil

	case OpHashJoin, OpINLJoin:
		left, err := t.layout(env, n.Children[0])
		if err != nil {
			return nil, err
		}
		n.jIdx = n.branch.IndexOf(n.jNode)
		n.jCol = colIndex(left, n.jNode)
		if n.jIdx < 0 || n.jCol < 0 {
			return nil, fmt.Errorf("plan: branch %s shares no node with the intermediate result", *n.branch)
		}
		if n.Kind == OpHashJoin {
			if _, err := t.layout(env, n.Children[1]); err != nil {
				return nil, err
			}
		} else {
			n.bspec = compileBoundSpec(env, *n.branch, n.jIdx)
		}
		pre := append(append([]*xpath.Node(nil), left...), n.branch.Nodes[n.jIdx+1:]...)
		return applyKeep(n, pre), nil

	case OpPathFilter:
		left, err := t.layout(env, n.Children[0])
		if err != nil {
			return nil, err
		}
		if _, err := t.layout(env, n.Children[1]); err != nil {
			return nil, err
		}
		n.keyCol = len(n.branch.Nodes) - 1
		n.lCol = colIndex(left, n.jNode)
		if n.lCol < 0 {
			return nil, fmt.Errorf("plan: branch %s shares no node with the intermediate result", *n.branch)
		}
		return applyKeep(n, left), nil
	}
	return nil, fmt.Errorf("plan: unexpected operator %s in branch plan", n.Kind)
}

// applyKeep turns the node's keep set into a column-index projection over
// the pre-projection layout pre, returning the post-projection layout.
// keepIdx stays nil when the projection is the identity (finish still
// deduplicates).
func applyKeep(n *Node, pre []*xpath.Node) []*xpath.Node {
	if n.keep == nil {
		return pre
	}
	var idx []int
	var cols []*xpath.Node
	for i, c := range pre {
		if n.keep[c] {
			idx = append(idx, i)
			cols = append(cols, c)
		}
	}
	if len(cols) == len(pre) {
		return pre
	}
	n.keepIdx = idx
	return cols
}

func colIndex(cols []*xpath.Node, n *xpath.Node) int {
	for i, c := range cols {
		if c == n {
			return i
		}
	}
	return -1
}

// compileSpec compiles a branch's free-probe pattern.
func compileSpec(env *Env, br xpath.Branch) probeSpec {
	pat, ok := compileBranch(env.Dict, br)
	sp := probeSpec{ok: ok, pat: pat}
	if !ok {
		return sp
	}
	sp.suffix = suffixSyms(pat)
	sp.simple = len(sp.suffix) == len(pat)
	sp.needRooted = !pat[0].Desc
	sp.anchored = anchorPattern(pat)
	return sp
}

// compileBoundSpec compiles the branch below jIdx anchored at the head
// label — the pattern a bound (index-nested-loop) probe resolves.
func compileBoundSpec(env *Env, br xpath.Branch, jIdx int) probeSpec {
	pat, ok := boundPattern(env.Dict, br, jIdx)
	sp := probeSpec{ok: ok, pat: pat}
	if !ok {
		return sp
	}
	sp.suffix = suffixSyms(pat)
	sp.simple = len(sp.suffix) == len(pat)
	return sp
}
