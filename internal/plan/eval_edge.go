package plan

import (
	"repro/internal/xpath"
)

// edgeEval evaluates branches one step at a time over the edge-table link
// indices. Every step is a join through the forward or backward link index;
// descendant (//) steps expand the whole subtree below each candidate. This
// is the baseline whose per-step join cost the paper's Figures 11 and 12
// expose.
//
// The walk itself stays tuple-at-a-time — its cost is dominated by the
// per-step index lookups, not by tuple handling — and converts to the
// caller's block at the boundary. It ignores the compiled probe spec: the
// walk works from the branch's label steps directly, and counts a lookup
// per step even for labels that never occur (as the real link indices
// would).
type edgeEval struct {
	env *Env
	es  *ExecStats
}

func (e *edgeEval) free(n *Node, out *brel, es *ExecStats) error {
	e.es = es
	br := *n.branch
	var tuples [][]int64
	var err error
	if br.HasValue {
		tuples, err = e.bottomUp(br)
	} else {
		tuples, err = e.topDown(br)
	}
	if err != nil {
		return err
	}
	for _, t := range tuples {
		out.appendRow(t)
	}
	return nil
}

// bottomUp starts from the value index and climbs to the root through the
// backward link index, one join per step.
func (e *edgeEval) bottomUp(br xpath.Branch) ([][]int64, error) {
	last := len(br.Steps) - 1
	var tuples [][]int64 // columns br.Nodes[i:] as we climb past i
	e.es.IndexLookups++
	rows, err := e.env.Edge.ValueProbe(br.Steps[last].Label, br.Value, func(id int64) error {
		tuples = append(tuples, []int64{id})
		return nil
	})
	e.es.RowsScanned += int64(rows)
	if err != nil {
		return nil, err
	}
	for i := last - 1; i >= 0; i-- {
		axis := br.Steps[i+1].Axis
		label := br.Steps[i].Label
		var next [][]int64
		for _, t := range tuples {
			top := t[0]
			if axis == xpath.Child {
				e.es.IndexLookups++
				pid, plabel, ok, err := e.env.Edge.Parent(top)
				if err != nil {
					return nil, err
				}
				if ok && pid != 0 && plabel == label {
					next = append(next, prepend(pid, t))
				}
				continue
			}
			// Descendant edge: every proper ancestor with the right
			// label is a candidate binding.
			for cur := top; ; {
				e.es.IndexLookups++
				pid, plabel, ok, err := e.env.Edge.Parent(cur)
				if err != nil {
					return nil, err
				}
				if !ok || pid == 0 {
					break
				}
				if plabel == label {
					next = append(next, prepend(pid, t))
				}
				cur = pid
			}
		}
		e.es.Join.TuplesIn += int64(len(tuples))
		e.es.Join.TuplesOut += int64(len(next))
		tuples = next
	}
	return e.anchorFilter(br, tuples)
}

// anchorFilter enforces the root anchor of a branch whose first axis is /:
// the top binding must be a document root.
func (e *edgeEval) anchorFilter(br xpath.Branch, tuples [][]int64) ([][]int64, error) {
	if br.Steps[0].Axis != xpath.Child {
		return tuples, nil
	}
	var out [][]int64
	for _, t := range tuples {
		e.es.IndexLookups++
		pid, _, ok, err := e.env.Edge.Parent(t[0])
		if err != nil {
			return nil, err
		}
		if ok && pid == 0 {
			out = append(out, t)
		}
	}
	return out, nil
}

// topDown walks from the document roots through the forward link index.
func (e *edgeEval) topDown(br xpath.Branch) ([][]int64, error) {
	first, err := e.stepFrom(0, br.Steps[0])
	if err != nil {
		return nil, err
	}
	tuples := make([][]int64, len(first))
	for i, id := range first {
		tuples[i] = []int64{id}
	}
	return e.walkDown(br.Steps[1:], tuples)
}

// walkDown extends tuples (whose last column is the current frontier)
// through the remaining steps.
func (e *edgeEval) walkDown(steps []xpath.Step, tuples [][]int64) ([][]int64, error) {
	for _, step := range steps {
		var next [][]int64
		for _, t := range tuples {
			ids, err := e.stepFrom(t[len(t)-1], step)
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				nt := make([]int64, 0, len(t)+1)
				nt = append(nt, t...)
				nt = append(nt, id)
				next = append(next, nt)
			}
		}
		e.es.Join.TuplesIn += int64(len(tuples))
		e.es.Join.TuplesOut += int64(len(next))
		tuples = next
	}
	return tuples, nil
}

// stepFrom returns the bindings of one step taken from node id: children
// with the step label for /, or all proper descendants with the label
// (breadth-first expansion through the forward index) for //.
func (e *edgeEval) stepFrom(id int64, step xpath.Step) ([]int64, error) {
	if step.Axis == xpath.Child {
		var out []int64
		e.es.IndexLookups++
		rows, err := e.env.Edge.Children(id, step.Label, func(c int64) error {
			out = append(out, c)
			return nil
		})
		e.es.RowsScanned += int64(rows)
		return out, err
	}
	var out []int64
	queue := []int64{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		e.es.IndexLookups++
		rows, err := e.env.Edge.Children(cur, step.Label, func(c int64) error {
			out = append(out, c)
			return nil
		})
		e.es.RowsScanned += int64(rows)
		if err != nil {
			return nil, err
		}
		e.es.IndexLookups++
		rows, err = e.env.Edge.Children(cur, "", func(c int64) error {
			queue = append(queue, c)
			return nil
		})
		e.es.RowsScanned += int64(rows)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bound walks down from each head id through the forward index — the
// index-nested-loop strategy available to the edge-based plans. A group is
// opened only for head ids with surviving matches, as the old map-of-slices
// result only held matching keys.
func (e *edgeEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	e.es = es
	br := *n.branch
	sub := br.Steps[n.jIdx+1:]
	for _, jid := range jids {
		e.es.INLProbes++
		first, err := e.stepFrom(jid, sub[0])
		if err != nil {
			return err
		}
		tuples := make([][]int64, len(first))
		for i, id := range first {
			tuples[i] = []int64{id}
		}
		tuples, err = e.walkDown(sub[1:], tuples)
		if err != nil {
			return err
		}
		tuples, err = e.filterValue(br, tuples)
		if err != nil {
			return err
		}
		if len(tuples) > 0 {
			out.beginGroup(jid)
			for _, t := range tuples {
				copy(out.newRow(), t)
			}
		}
	}
	return nil
}

// filterValue keeps tuples whose last column carries the branch's leaf
// value, verified through the value index.
func (e *edgeEval) filterValue(br xpath.Branch, tuples [][]int64) ([][]int64, error) {
	if !br.HasValue || len(tuples) == 0 {
		return tuples, nil
	}
	matching := map[int64]struct{}{}
	e.es.IndexLookups++
	rows, err := e.env.Edge.ValueProbe(br.Steps[len(br.Steps)-1].Label, br.Value, func(id int64) error {
		matching[id] = struct{}{}
		return nil
	})
	e.es.RowsScanned += int64(rows)
	if err != nil {
		return nil, err
	}
	return semiJoin(tuples, len(tuples[0])-1, matching, &e.es.Join), nil
}

// semiJoin returns the left rows whose lcol value appears in keys.
func semiJoin(left [][]int64, lcol int, keys map[int64]struct{}, c *JoinCounters) [][]int64 {
	c.TuplesIn += int64(len(left))
	var out [][]int64
	for _, t := range left {
		if _, ok := keys[t[lcol]]; ok {
			out = append(out, t)
		}
	}
	c.TuplesOut += int64(len(out))
	return out
}

func prepend(id int64, t []int64) []int64 {
	nt := make([]int64, 0, len(t)+1)
	nt = append(nt, id)
	return append(nt, t...)
}
