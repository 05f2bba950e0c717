package plan

import (
	"fmt"
	"time"
)

// Runtime is the private per-execution state of one plan tree: per-operator
// actual cardinalities, counters and output blocks, plus the shared scratch
// (join-id buffer, hash table, result ids) every operator draws from. Plan
// trees themselves are immutable after Build — the engine's plan cache
// hands the same *Tree to concurrent queries — so everything a run mutates
// lives here. Runtimes pool on the tree (sync.Pool), which is what makes a
// steady-state cache-hit query allocation-free: the blocks it fills were
// allocated by some earlier execution of the same cached plan.
type Runtime struct {
	tree   *Tree
	states []runState

	// env and eval cache the evaluator for the environment the runtime last
	// ran against; a different env pointer (a caller running one tree
	// against a copied env) rebuilds it.
	env  *Env
	eval evaluator

	ids    []int64   // final result ids (owned by the runtime)
	jids   []int64   // scratch: distinct join ids for INL probes
	ht     hashTab   // shared hash table (join build / key set / group lookup)
	sorter rowSorter // distinct's sort.Interface over a wide block

	// trace records per-operator wall time (and, with env.IOStat, device
	// read deltas) into the runStates. All trace state lives in the
	// pooled runtime, so tracing allocates nothing; when off, the only
	// cost is one branch per operator.
	trace bool
}

// runState is one operator's execution state.
type runState struct {
	act   int64
	stats ExecStats
	out   brel
	bout  boundRel

	// Trace measurements of the last run (traced runs only): inclusive
	// subtree wall time and attributed device-read deltas.
	elapsedNS int64
	reads     int64
	readBytes int64
}

func (t *Tree) runtime() *Runtime {
	if rt, ok := t.pool.Get().(*Runtime); ok {
		return rt
	}
	return &Runtime{tree: t, states: make([]runState, len(t.nodes))}
}

func (t *Tree) recycle(rt *Runtime) { t.pool.Put(rt) }

// reset prepares the runtime for a run against env.
func (rt *Runtime) reset(env *Env) {
	for i := range rt.states {
		st := &rt.states[i]
		st.act = -1
		st.stats.reset()
		st.elapsedNS = 0
		st.reads = 0
		st.readBytes = 0
	}
	rt.ids = rt.ids[:0]
	rt.trace = false
	if rt.env != env {
		rt.env = env
		rt.eval = nil
	}
}

// evaluator returns the cached strategy evaluator, building it on first use
// (or after an env change).
func (rt *Runtime) evaluator() (evaluator, error) {
	if rt.eval == nil {
		ev, err := newEvaluator(rt.env, rt.tree.Strategy)
		if err != nil {
			return nil, err
		}
		rt.eval = ev
	}
	return rt.eval, nil
}

// exec evaluates one relation-producing operator into its runState's block.
// When an operator's input relation is empty it short-circuits: the
// remaining side of the join is never evaluated (its act stays -1, rendered
// as "not run" by EXPLAIN), exactly as the executor has always skipped
// branches once the intermediate result is empty.
func (rt *Runtime) exec(n *Node) (*brel, error) {
	if rt.trace {
		return rt.execTraced(n)
	}
	return rt.execOp(n)
}

// execTraced wraps execOp with monotonic wall-time measurement and
// optional device-read attribution. Inclusive semantics: a child's
// execTraced runs inside the parent's window, so every state holds its
// subtree's time; self time falls out at view() time. Each operator runs
// exactly once per run, so the measurement is stored, not accumulated.
func (rt *Runtime) execTraced(n *Node) (*brel, error) {
	var r0, b0 int64
	io := rt.env.IOStat
	if io != nil {
		r0, b0 = io()
	}
	start := time.Now()
	r, err := rt.execOp(n)
	st := &rt.states[n.ord]
	st.elapsedNS = time.Since(start).Nanoseconds()
	if io != nil {
		r1, b1 := io()
		st.reads = r1 - r0
		st.readBytes = b1 - b0
	}
	return r, err
}

func (rt *Runtime) execOp(n *Node) (*brel, error) {
	switch n.Kind {
	case OpIndexProbe:
		return rt.runProbe(n)
	case OpHashJoin:
		return rt.runHashJoin(n)
	case OpINLJoin:
		return rt.runINLJoin(n)
	case OpPathFilter:
		return rt.runPathFilter(n)
	case OpProject:
		return rt.runProject(n)
	}
	return nil, fmt.Errorf("plan: unexpected operator %s in branch plan", n.Kind)
}

// finish applies the operator's retained-column projection (the relational
// plan's DISTINCT on branch-point ids) and records the actual cardinality.
func (rt *Runtime) finish(n *Node, st *runState) *brel {
	if n.keepIdx != nil {
		st.out.projectInPlace(n.keepIdx)
	}
	st.out.data = rt.distinct(st.out.data, st.out.width)
	st.act = int64(st.out.rows())
	return &st.out
}

func (rt *Runtime) runProbe(n *Node) (*brel, error) {
	st := &rt.states[n.ord]
	st.out.reset(len(n.branch.Nodes))
	ev, err := rt.evaluator()
	if err != nil {
		return nil, err
	}
	if err := ev.free(n, &st.out, &st.stats); err != nil {
		return nil, err
	}
	return rt.finish(n, st), nil
}

func (rt *Runtime) runHashJoin(n *Node) (*brel, error) {
	left, err := rt.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	if left.rows() == 0 {
		return left, nil
	}
	right, err := rt.exec(n.Children[1])
	if err != nil {
		return nil, err
	}
	st := &rt.states[n.ord]
	st.stats.Join.TuplesIn += int64(left.rows() + right.rows())
	// Build on the (full-width) right branch relation, probe with the left:
	// joined rows are left columns ++ the branch's new columns below the
	// join node.
	rrows := right.rows()
	rt.ht.init(rrows)
	for i := 0; i < rrows; i++ {
		rt.ht.insert(right.row(i)[n.jIdx], int32(i))
	}
	st.out.reset(left.width + right.width - n.jIdx - 1)
	lrows := left.rows()
	for i := 0; i < lrows; i++ {
		lrow := left.row(i)
		for h := rt.ht.first(lrow[n.jCol]); h != 0; h = rt.ht.next[h-1] {
			row := st.out.newRow()
			copy(row, lrow)
			copy(row[left.width:], right.row(int(h - 1))[n.jIdx+1:])
		}
	}
	st.stats.Join.TuplesOut += int64(st.out.rows())
	return rt.finish(n, st), nil
}

func (rt *Runtime) runINLJoin(n *Node) (*brel, error) {
	left, err := rt.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	if left.rows() == 0 {
		return left, nil
	}
	st := &rt.states[n.ord]
	// Distinct join ids, sorted (probe order is deterministic).
	rt.jids = rt.jids[:0]
	for i, lrows := 0, left.rows(); i < lrows; i++ {
		rt.jids = append(rt.jids, left.row(i)[n.jCol])
	}
	rt.jids = rt.distinct(rt.jids, 1)

	st.bout.reset(len(n.branch.Nodes) - n.jIdx - 1)
	ev, err := rt.evaluator()
	if err != nil {
		return nil, err
	}
	if err := ev.bound(n, rt.jids, &st.bout, &st.stats); err != nil {
		return nil, err
	}
	// Group lookup: jid -> group index.
	rt.ht.init(len(st.bout.jids))
	for g, jid := range st.bout.jids {
		rt.ht.insert(jid, int32(g))
	}
	st.out.reset(left.width + st.bout.sub.width)
	lrows := left.rows()
	for i := 0; i < lrows; i++ {
		lrow := left.row(i)
		h := rt.ht.first(lrow[n.jCol])
		for ; h != 0; h = rt.ht.next[h-1] {
			start, end := st.bout.group(int(h - 1))
			for s := start; s < end; s++ {
				row := st.out.newRow()
				copy(row, lrow)
				copy(row[left.width:], st.bout.sub.row(s))
			}
		}
	}
	st.stats.Join.TuplesIn += int64(left.rows())
	st.stats.Join.TuplesOut += int64(st.out.rows())
	return rt.finish(n, st), nil
}

func (rt *Runtime) runPathFilter(n *Node) (*brel, error) {
	left, err := rt.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	if left.rows() == 0 {
		return left, nil
	}
	right, err := rt.exec(n.Children[1])
	if err != nil {
		return nil, err
	}
	st := &rt.states[n.ord]
	// The branch adds no new columns: semi-join on its leaf column.
	rrows := right.rows()
	rt.ht.init(rrows)
	for i := 0; i < rrows; i++ {
		key := right.row(i)[n.keyCol]
		if !rt.ht.contains(key) {
			rt.ht.insert(key, int32(i))
		}
	}
	st.stats.Join.TuplesIn += int64(left.rows())
	st.out.reset(left.width)
	lrows := left.rows()
	for i := 0; i < lrows; i++ {
		lrow := left.row(i)
		if rt.ht.contains(lrow[n.lCol]) {
			st.out.appendRow(lrow)
		}
	}
	st.stats.Join.TuplesOut += int64(st.out.rows())
	return rt.finish(n, st), nil
}

func (rt *Runtime) runProject(n *Node) (*brel, error) {
	r, err := rt.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	st := &rt.states[n.ord]
	st.out.reset(1)
	if r.rows() == 0 {
		st.act = 0
		return &st.out, nil
	}
	for i, rows := 0, r.rows(); i < rows; i++ {
		st.out.newRow()[0] = r.row(i)[n.outCol]
	}
	st.act = int64(st.out.rows())
	return &st.out, nil
}

// aggregate sums the per-operator counters of the last run into es.
// Iterates the flat finalize-time node list rather than walking the tree,
// so the steady-state path stays closure- and allocation-free.
func (rt *Runtime) aggregate(es *ExecStats) {
	t := rt.tree
	for _, n := range t.nodes {
		st := &rt.states[n.ord]
		o := &st.stats
		es.IndexLookups += o.IndexLookups
		es.RowsScanned += o.RowsScanned
		es.INLProbes += o.INLProbes
		es.Join.Add(o.Join)
		for id := range o.relations {
			es.touchRelation(id)
		}
		if n.Kind == OpINLJoin && st.act >= 0 {
			es.UsedINL = true
		}
	}
	es.BranchesJoined = t.Branches
}

// view materialises an executed copy of the tree — estimates from the
// template, actuals from this run — for ExecStats.Plan / EXPLAIN. The copy
// is what escapes to callers; the template stays immutable and the runtime
// stays reusable. The operators come out of one slab and their child
// links out of another, so a view costs three allocations whatever the
// tree's size. Ordinals are pre-order, which puts every child after its
// parent: filling the slab back to front has each child's inclusive time
// ready when its parent's self time is derived.
func (rt *Runtime) view() *Tree {
	t := rt.tree
	vnodes := make([]Node, len(t.nodes))
	links := make([]*Node, 0, len(t.nodes)-1)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n, st := t.nodes[i], &rt.states[i]
		vn := &vnodes[i]
		*vn = Node{
			Kind:    n.Kind,
			Detail:  n.Detail,
			EstRows: n.EstRows,
			EstCost: n.EstCost,
			ActRows: st.act,
		}
		if len(n.Children) > 0 {
			first := len(links)
			for _, c := range n.Children {
				links = append(links, &vnodes[c.ord])
			}
			vn.Children = links[first:len(links):len(links)]
		}
		if rt.trace {
			vn.ElapsedNS = st.elapsedNS
			vn.Reads = st.reads
			vn.ReadBytes = st.readBytes
			// Self time: inclusive minus the children's inclusive times,
			// which nest inside the parent's window.
			vn.SelfNS = vn.ElapsedNS
			for _, c := range vn.Children {
				vn.SelfNS -= c.ElapsedNS
			}
		}
	}
	return &Tree{
		Strategy: t.Strategy,
		Pattern:  t.Pattern,
		Root:     &vnodes[0],
		EstCost:  t.EstCost,
		Branches: t.Branches,
		Executed: true,
		Traced:   rt.trace,
	}
}

// reset clears an ExecStats for reuse, keeping the relations map's storage.
func (es *ExecStats) reset() {
	rel := es.relations
	*es = ExecStats{}
	if rel != nil {
		clear(rel)
		es.relations = rel
	}
}
