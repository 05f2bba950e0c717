package plan

import "time"

// Run is the executor's one entry point: it runs a built plan tree and
// returns the sorted distinct ids of the output node's matches plus the
// aggregated, operator-fed ExecStats, whose Plan field is an executed view
// of the tree (estimates from the template, actuals from this run). A query
// runs on the calling goroutine; concurrency comes from concurrent queries.
//
// trace forces per-operator wall-time tracing for this one run (EXPLAIN
// ANALYZE); Env.TraceAll turns it on for every run. The returned stats'
// Plan view then carries ElapsedNS/SelfNS per operator, and device-read
// attribution when the env supplies IOStat.
//
// The tree itself is never mutated: every per-run value lives in a Runtime
// drawn from the tree's pool, so one tree, a plan-cache entry say, can
// execute from any number of goroutines concurrently.
func Run(env *Env, t *Tree, trace bool) ([]int64, *ExecStats, error) {
	rt := t.runtime()
	ids, err := rt.run(env, trace || env.TraceAll)
	es := &ExecStats{}
	rt.aggregate(es)
	es.Plan = rt.view()
	out := append([]int64(nil), ids...)
	t.recycle(rt)
	return out, es, err
}

// ExecuteTree is Run with tracing left to Env.TraceAll.
func ExecuteTree(env *Env, t *Tree) ([]int64, *ExecStats, error) {
	return Run(env, t, false)
}

// ExecuteTreeTraced is ExecuteTree with tracing forced on for this run.
func ExecuteTreeTraced(env *Env, t *Tree) ([]int64, *ExecStats, error) {
	return Run(env, t, true)
}

// run executes the tree, leaving per-operator state in rt and the sorted
// distinct output ids in rt.ids (owned by the runtime, valid until its next
// run). With trace on, the root's inclusive elapsed time spans the whole
// run, final dedup included, so the root span is the executor-side
// end-to-end latency. A warmed runtime runs without allocating, traced or
// not.
func (rt *Runtime) run(env *Env, trace bool) ([]int64, error) {
	rt.reset(env)
	rt.trace = trace
	var start time.Time
	if trace {
		start = time.Now()
	}
	t := rt.tree
	root := &rt.states[t.Root.ord]
	var ids []int64
	var err error
	if t.Root.Kind == OpStructuralJoin {
		ids, err = runStructural(rt, env, t.Pattern, t.Root)
	} else {
		// The root is always Dedup over Project, whose output has width 1:
		// dedup it into the runtime's id buffer.
		var r *brel
		if r, err = rt.exec(t.Root.Children[0]); err == nil {
			rt.ids = rt.distinct(append(rt.ids[:0], r.data...), 1)
			ids = rt.ids
			root.act = int64(len(ids))
		}
	}
	if trace {
		root.elapsedNS = time.Since(start).Nanoseconds()
	}
	return ids, err
}
