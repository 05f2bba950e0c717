package plan

import (
	"repro/internal/index"
	"repro/internal/xpath"
)

// scratch is the working storage a baseline evaluator keeps between probes:
// whatever a step-at-a-time evaluation builds on its way to the caller's
// block. An evaluator belongs to one Runtime and is never shared, so
// neither is its scratch; a warmed evaluator's plan-layer work allocates
// nothing.
type scratch struct {
	sc   index.Scratch // the index layer's probe prefix, iterator and decode buffers
	a, b brel          // ping-pong relations: a step reads one and writes the other
	ids  []int64       // id buffer: the output of one index access
	aux  []int64       // second id buffer: // expansion queue, value-probe ids, ancestor chain
	keys hashTab       // key set of a value semi-join
	asn  []int         // flat schema-match assignments (pathdict.EnumerateMatchesInto)

	sink    *[]int64
	collect func(id int64) error
}

// into returns the index-layer callback that appends each id to *buf. The
// closure is made once; only its destination changes between accesses.
func (s *scratch) into(buf *[]int64) func(int64) error {
	if s.collect == nil {
		s.collect = func(id int64) error {
			*s.sink = append(*s.sink, id)
			return nil
		}
	}
	s.sink = buf
	return s.collect
}

// edgeEval evaluates branches one step at a time over the edge-table link
// indices. Every step is a join through the forward or backward link index;
// descendant (//) steps expand the whole subtree below each candidate. This
// is the baseline whose per-step join cost the paper's Figures 11 and 12
// expose.
//
// It ignores the compiled probe spec: the walk works from the branch's
// label steps directly, and counts a lookup per step even for labels that
// never occur (as the real link indices would).
type edgeEval struct {
	env *Env
	es  *ExecStats
	scratch
}

func newEdgeEval(env *Env) evaluator { return &edgeEval{env: env} }

func (e *edgeEval) free(n *Node, out *brel, es *ExecStats) error {
	e.es = es
	var r *brel
	var err error
	if n.branch.HasValue {
		r, err = e.bottomUp(n.branch)
	} else {
		// Top down: from the document roots through the forward link index.
		r, err = e.walkFrom(0, n.branch.Steps)
	}
	if err != nil {
		return err
	}
	out.data = append(out.data, r.data...)
	return nil
}

// bottomUp starts from the value index and climbs to the root through the
// backward link index, one join per step.
func (e *edgeEval) bottomUp(br *xpath.Branch) (*brel, error) {
	cur, next := &e.a, &e.b // columns br.Nodes[i:] as the climb passes i
	cur.reset(1)
	if err := e.valueProbe(br, &cur.data); err != nil {
		return nil, err
	}
	for i := len(br.Steps) - 2; i >= 0; i-- {
		axis, label := br.Steps[i+1].Axis, br.Steps[i].Label
		next.reset(cur.width + 1)
		for r, rows := 0, cur.rows(); r < rows; r++ {
			t := cur.row(r)
			// Child edge: the parent is the one candidate binding.
			// Descendant edge: so is every proper ancestor with the label.
			for at := t[0]; ; {
				e.es.IndexLookups++
				pid, plabel, ok, err := e.env.Edge.Parent(&e.sc, at)
				if err != nil {
					return nil, err
				}
				if !ok || pid == 0 {
					break
				}
				if plabel == label {
					next.rowBefore(pid, t)
				}
				if axis == xpath.Child {
					break
				}
				at = pid
			}
		}
		e.es.Join.TuplesIn += int64(cur.rows())
		e.es.Join.TuplesOut += int64(next.rows())
		cur, next = next, cur
	}
	return cur, e.anchorFilter(br, cur)
}

// anchorFilter enforces, in place, the root anchor of a branch whose first
// axis is /: the top binding must be a document root.
func (e *edgeEval) anchorFilter(br *xpath.Branch, r *brel) error {
	if br.Steps[0].Axis != xpath.Child {
		return nil
	}
	kept := 0
	for i, rows := 0, r.rows(); i < rows; i++ {
		t := r.row(i)
		e.es.IndexLookups++
		pid, _, ok, err := e.env.Edge.Parent(&e.sc, t[0])
		if err != nil {
			return err
		}
		if ok && pid == 0 {
			copy(r.row(kept), t)
			kept++
		}
	}
	r.truncate(kept)
	return nil
}

// walkFrom takes steps[0] from node id into a one-column relation and
// extends it — the last column is the frontier — through the remaining
// steps, one join each.
func (e *edgeEval) walkFrom(id int64, steps []xpath.Step) (*brel, error) {
	cur, next := &e.a, &e.b
	cur.reset(1)
	if err := e.stepFrom(id, steps[0], &cur.data); err != nil {
		return nil, err
	}
	for _, step := range steps[1:] {
		next.reset(cur.width + 1)
		for r, rows := 0, cur.rows(); r < rows; r++ {
			t := cur.row(r)
			e.ids = e.ids[:0]
			if err := e.stepFrom(t[len(t)-1], step, &e.ids); err != nil {
				return nil, err
			}
			for _, c := range e.ids {
				next.rowAfter(t, c)
			}
		}
		e.es.Join.TuplesIn += int64(cur.rows())
		e.es.Join.TuplesOut += int64(next.rows())
		cur, next = next, cur
	}
	return cur, nil
}

// stepFrom appends to dst the bindings of one step taken from node id:
// children with the step label for /, or all proper descendants with the
// label (breadth-first expansion through the forward index) for //.
func (e *edgeEval) stepFrom(id int64, step xpath.Step, dst *[]int64) error {
	if step.Axis == xpath.Child {
		return e.children(id, step.Label, dst)
	}
	e.aux = append(e.aux[:0], id)
	for head := 0; head < len(e.aux); head++ {
		cur := e.aux[head]
		if err := e.children(cur, step.Label, dst); err != nil {
			return err
		}
		if err := e.children(cur, "", &e.aux); err != nil {
			return err
		}
	}
	return nil
}

// children appends id's children with the label (all of them for "") to
// dst: one forward-index lookup.
func (e *edgeEval) children(id int64, label string, dst *[]int64) error {
	e.es.IndexLookups++
	rows, err := e.env.Edge.Children(&e.sc, id, label, e.into(dst))
	e.es.RowsScanned += int64(rows)
	return err
}

// valueProbe appends to dst the ids carrying the branch's leaf label and
// value: one value-index lookup.
func (e *edgeEval) valueProbe(br *xpath.Branch, dst *[]int64) error {
	e.es.IndexLookups++
	rows, err := e.env.Edge.ValueProbe(&e.sc, br.Steps[len(br.Steps)-1].Label, br.Value, e.into(dst))
	e.es.RowsScanned += int64(rows)
	return err
}

// bound walks down from each head id through the forward index — the
// index-nested-loop strategy available to the edge-based plans. A group is
// opened only for head ids with surviving matches.
func (e *edgeEval) bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error {
	e.es = es
	br := n.branch
	for _, jid := range jids {
		e.es.INLProbes++
		r, err := e.walkFrom(jid, br.Steps[n.jIdx+1:])
		if err != nil {
			return err
		}
		if br.HasValue && r.rows() > 0 {
			if err := e.valueFilter(br, r); err != nil {
				return err
			}
		}
		if r.rows() > 0 {
			out.beginGroup(jid)
			for i, rows := 0, r.rows(); i < rows; i++ {
				copy(out.newRow(), r.row(i))
			}
		}
	}
	return nil
}

// valueFilter keeps the rows of r whose last column carries the branch's
// leaf value: a value-index probe, semi-joined in place.
func (e *edgeEval) valueFilter(br *xpath.Branch, r *brel) error {
	e.aux = e.aux[:0]
	if err := e.valueProbe(br, &e.aux); err != nil {
		return err
	}
	e.keys.keySet(e.aux)
	r.keepKeys(r.width-1, &e.keys, &e.es.Join)
	return nil
}
