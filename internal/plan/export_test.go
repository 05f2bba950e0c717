package plan

// HoldRuntime draws one runtime from t's pool and returns the executor's
// internal run bound to it — what Run executes between drawing a runtime
// and copying the result out. The zero-allocation tests hold one runtime
// for their whole measurement, so a GC emptying the sync.Pool cannot show
// up as an allocation.
func HoldRuntime(t *Tree) func(env *Env, workers int, trace bool) ([]int64, error) {
	return t.runtime().run
}
