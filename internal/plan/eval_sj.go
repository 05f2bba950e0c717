package plan

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/containment"
	"repro/internal/index"
	"repro/internal/xpath"
)

// runStructural executes an OpStructuralJoin operator: a twig evaluated
// with binary structural semi-joins over region-encoded candidate lists —
// the [Zhang et al. / Al-Khalifa et al.] approach the paper cites but could
// not run inside DB2. Each OpRegionScan child fetches one twig node's
// candidate list (element-list B+-tree, or the value index for valued
// nodes) and records its own lookup/row counters into its runtime state;
// the join operator then fully reduces the twig with one bottom-up and one
// top-down semi-join pass (complete for tree patterns) and returns the
// output node's surviving candidates in rt.ids.
func runStructural(rt *Runtime, env *Env, pat *xpath.Pattern, sj *Node) ([]int64, error) {
	if err := env.check(StructuralJoinPlan); err != nil {
		return nil, err
	}
	scanFor := make(map[*xpath.Node]*Node, len(sj.Children))
	for _, c := range sj.Children {
		scanFor[c.twig] = c
	}

	cands := map[*xpath.Node][]containment.Region{}
	var sc index.Scratch
	var build func(n *xpath.Node) error
	build = func(n *xpath.Node) error {
		scan := scanFor[n]
		if scan == nil {
			return fmt.Errorf("plan: structural plan missing region scan for %q", n.Label)
		}
		st := &rt.states[scan.ord]
		es := &st.stats
		var scanStart time.Time
		if rt.trace {
			scanStart = time.Now()
		}
		var list []containment.Region
		if n.HasValue {
			es.IndexLookups++
			rows, err := env.Edge.ValueProbe(&sc, n.Label, n.Value, func(id int64) error {
				if r, ok := env.Containment.Region(id); ok {
					list = append(list, r)
				}
				return nil
			})
			es.RowsScanned += int64(rows)
			if err != nil {
				return err
			}
			containment.SortRegions(list)
		} else {
			es.IndexLookups++
			rows, err := env.Containment.Candidates(&sc.PrefixScan, n.Label, func(r containment.Region) error {
				list = append(list, r)
				return nil
			})
			es.RowsScanned += int64(rows)
			if err != nil {
				return err
			}
		}
		cands[n] = list
		st.act = int64(len(list))
		if rt.trace {
			st.elapsedNS += time.Since(scanStart).Nanoseconds()
		}
		for _, c := range n.Children {
			if err := build(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(pat.Root); err != nil {
		return nil, err
	}

	st := &rt.states[sj.ord]
	es := &st.stats
	// Bottom-up semi-join reduction: a node survives only if every child
	// subtree has a match below it.
	var up func(n *xpath.Node)
	up = func(n *xpath.Node) {
		for _, c := range n.Children {
			up(c)
			es.Join.TuplesIn += int64(len(cands[n]) + len(cands[c]))
			cands[n] = containment.StructuralSemiJoinAnc(cands[n], cands[c], c.Axis == xpath.Child)
			es.Join.TuplesOut += int64(len(cands[n]))
		}
	}
	up(pat.Root)

	// Root anchoring: a pattern root with a child axis must be a document
	// root (level 1 under the virtual root).
	if pat.Root.Axis == xpath.Child {
		kept := cands[pat.Root][:0]
		for _, r := range cands[pat.Root] {
			if r.Level == 1 {
				kept = append(kept, r)
			}
		}
		cands[pat.Root] = kept
	}

	// Top-down pass: a node survives only with a surviving parent above it.
	var down func(n *xpath.Node)
	down = func(n *xpath.Node) {
		for _, c := range n.Children {
			es.Join.TuplesIn += int64(len(cands[n]) + len(cands[c]))
			cands[c] = containment.StructuralSemiJoinDesc(cands[n], cands[c], c.Axis == xpath.Child)
			es.Join.TuplesOut += int64(len(cands[c]))
			down(c)
		}
	}
	down(pat.Root)

	rt.ids = rt.ids[:0]
	for _, r := range cands[pat.Output] {
		rt.ids = append(rt.ids, r.NodeID)
	}
	slices.Sort(rt.ids)
	// Candidates are distinct nodes, so rt.ids is already duplicate-free.
	st.act = int64(len(rt.ids))
	return rt.ids, nil
}
