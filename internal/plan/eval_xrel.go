package plan

import (
	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// newXRelEval is the XRel+Edge strategy: the branch pattern is resolved
// against the normalised path table into concrete path ids — a // expands
// into *several* equality conditions, one lookup each, which is the
// Section 5.2.6 recursion argument — then each path id is probed for
// (value, node id) rows, and branch-point ids are recovered with
// backward-link climbs through the node table as in the DataGuide plan.
func newXRelEval(env *Env) evaluator {
	e := &climbEval{edgeEval: edgeEval{env: env}}
	var pids []pathdict.PathID
	var paths []pathdict.Path
	e.expand = func(pat []pathdict.PStep) []pathdict.Path {
		pids = env.XRel.MatchingPaths(pat, false)
		paths = paths[:0]
		for _, pid := range pids {
			paths = append(paths, env.XRel.Paths().Path(pid))
		}
		return paths
	}
	e.leaves = func(i int, _ pathdict.Path, br *xpath.Branch, fn func(int64) error) (int, error) {
		e.es.touchRelation(pids[i])
		return env.XRel.Probe(&e.sc, pids[i], br.HasValue, br.Value, fn)
	}
	return e
}
