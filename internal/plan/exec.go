package plan

import (
	"sync"
	"time"
)

// Run is the executor's one entry point: it runs a built plan tree and
// returns the sorted distinct ids of the output node's matches plus the
// aggregated, operator-fed ExecStats, whose Plan field is an executed view
// of the tree (estimates from the template, actuals from this run).
//
// workers goes through ResolveWorkers (<= 0 means GOMAXPROCS, capped by the
// probe-leaf count). A resolved count above 1 materialises the tree's
// OpIndexProbe leaves concurrently before the join/filter/projection spine
// runs over them — the fan-out changes wall-clock shape, not semantics,
// which is what the differential harness asserts. Bound (index-nested-loop)
// probes are inherently sequential, their probe set being the previous
// join's output, so callers that want every branch fanned out build the
// tree with Env.INLFactor < 0. Trees with fewer than two probe leaves (the
// structural join's twig-wide operator included) run serially whatever was
// asked for.
//
// trace forces per-operator wall-time tracing for this one run (EXPLAIN
// ANALYZE); Env.TraceAll turns it on for every run. The returned stats'
// Plan view then carries ElapsedNS/SelfNS per operator, and device-read
// attribution when the env supplies IOStat.
//
// The tree itself is never mutated: every per-run value lives in a Runtime
// drawn from the tree's pool — a parallel worker writes only its own
// probe's slot in it — so one tree, a plan-cache entry say, can execute
// from any number of goroutines concurrently.
func Run(env *Env, t *Tree, workers int, trace bool) ([]int64, *ExecStats, error) {
	rt := t.runtime()
	ids, err := rt.run(env, workers, trace || env.TraceAll)
	es := &ExecStats{}
	rt.aggregate(es)
	es.Plan = rt.view()
	out := append([]int64(nil), ids...)
	t.recycle(rt)
	return out, es, err
}

// ExecuteTree is Run with one worker and tracing left to Env.TraceAll.
func ExecuteTree(env *Env, t *Tree) ([]int64, *ExecStats, error) {
	return Run(env, t, 1, false)
}

// ExecuteTreeTraced is ExecuteTree with tracing forced on for this run.
func ExecuteTreeTraced(env *Env, t *Tree) ([]int64, *ExecStats, error) {
	return Run(env, t, 1, true)
}

// run executes the tree, leaving per-operator state in rt and the sorted
// distinct output ids in rt.ids (owned by the runtime, valid until its next
// run). With more than one resolved worker the probe leaves materialise on
// worker goroutines first. With trace on, the root's inclusive elapsed time
// spans the whole run — fan-out, spine and final dedup — so the root span
// is the executor-side end-to-end latency. A warmed runtime runs serially
// without allocating, traced or not.
func (rt *Runtime) run(env *Env, workers int, trace bool) ([]int64, error) {
	rt.reset(env)
	rt.trace = trace
	var start time.Time
	if trace {
		start = time.Now()
	}
	probes := rt.tree.probes
	if len(probes) > 1 {
		if workers = ResolveWorkers(workers, len(probes)); workers > 1 {
			rt.parallel = true
			if err := rt.fanOut(env, probes, workers); err != nil {
				return nil, err
			}
		}
	}
	ids, err := rt.spine(env)
	if trace {
		rt.states[rt.tree.Root.ord].elapsedNS = time.Since(start).Nanoseconds()
	}
	return ids, err
}

// fanOut materialises the probe leaves on at most `workers` goroutines.
// Each worker gets a private evaluator (evaluators are not goroutine-safe)
// and writes only its probe's runState — the states of distinct operators
// never alias — so the run has no shared mutable state beyond the
// WaitGroup. Every completed probe's counters are already in its runState,
// so the aggregated ExecStats accounts for all the work that ran even when
// some probe failed.
func (rt *Runtime) fanOut(env *Env, probes []*Node, workers int) error {
	sem := make(chan struct{}, workers)
	errs := make([]error, len(probes))
	var wg sync.WaitGroup
	for i, p := range probes {
		wg.Add(1)
		go func(i int, p *Node) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var start time.Time
			if rt.trace {
				start = time.Now()
			}
			st := &rt.states[p.ord]
			st.out.reset(len(p.branch.Nodes))
			ev, err := newEvaluator(env, rt.tree.Strategy)
			if err == nil {
				err = ev.free(p, &st.out, &st.stats)
			}
			if err == nil {
				st.cached = true
			}
			if rt.trace {
				// Worker wall time; the spine's cheap cached re-visit
				// adds its finish cost on top (execTraced accumulates).
				st.elapsedNS += time.Since(start).Nanoseconds()
			}
			errs[i] = err
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
