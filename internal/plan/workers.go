package plan

import "runtime"

// ResolveWorkers is the single worker-count clamp every layer uses (the
// executor and the engine's query path), so a zero, negative or oversized
// request behaves identically everywhere:
// requested <= 0 resolves to GOMAXPROCS, and when the number of
// parallelisable units (probe leaves / branches) is known and positive the
// count is capped by it — more workers than branches would only idle.
// The result is always >= 1.
func ResolveWorkers(requested, branches int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if branches > 0 && w > branches {
		w = branches
	}
	if w < 1 {
		w = 1
	}
	return w
}
