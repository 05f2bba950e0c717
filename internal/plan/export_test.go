package plan

// HoldRuntime draws one runtime from t's pool and returns the executor's
// internal run bound to it — what Run executes between drawing a runtime
// and copying the result out. The zero-allocation tests hold one runtime
// for their whole measurement, so a GC emptying the sync.Pool cannot show
// up as an allocation.
func HoldRuntime(t *Tree) func(env *Env, trace bool) ([]int64, error) {
	return t.runtime().run
}

// HoldRuntimeObserved is HoldRuntime plus a report of which executor paths
// the held runtime has been through since it was drawn: enumerated — a
// non-simple probe resolved its rows through the evaluator's match memo —
// and wideSort — DISTINCT had to sort a block of two or more columns. The
// zero-allocation tests use it to prove a case still reaches the path it
// was added for.
func HoldRuntimeObserved(t *Tree) (run func(env *Env, trace bool) ([]int64, error), observed func() (enumerated, wideSort bool)) {
	rt := t.runtime()
	return rt.run, func() (bool, bool) {
		ev, ok := rt.eval.(*pathsEval)
		return ok && ev.memo.spec != nil, rt.sorter.width > 1
	}
}

// NewDistinct returns the executor's DISTINCT kernel bound to one fresh
// runtime, as an operator of a running plan calls it.
func NewDistinct() func(data []int64, width int) []int64 {
	return new(Runtime).distinct
}
