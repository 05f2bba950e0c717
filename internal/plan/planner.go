package plan

import (
	"fmt"

	"repro/internal/xpath"
)

// strategyPreference orders candidate strategies for deterministic
// tie-breaking when two plans cost the same (e.g. ROOTPATHS and DATAPATHS
// on a single-path query): the paper's proposed indices first, then the
// per-path baselines, then the join-heavy ones.
var strategyPreference = []Strategy{
	DataPathsPlan, RootPathsPlan, ASRPlan, XRelPlan, FabricEdgePlan,
	DataGuideEdgePlan, JoinIndexPlan, StructuralJoinPlan, EdgePlan,
}

// Candidate is one strategy the planner considered, with the cost of its
// best plan tree (or the reason it was skipped).
type Candidate struct {
	Strategy Strategy
	Cost     float64
	Err      error
}

// Choose is the cost-based planner: it builds a plan tree per strategy
// whose indices are built, costs each with the calibrated cost model over
// the collected statistics, and returns the cheapest tree — the decision
// the paper delegates to DB2's optimizer. The returned candidates report
// every considered strategy's cost, for EXPLAIN.
//
// An error is returned only when no strategy is executable (no index
// built, or every builder failed).
func Choose(env *Env, pat *xpath.Pattern) (*Tree, []Candidate, error) {
	var best *Tree
	var cands []Candidate
	for _, s := range strategyPreference {
		if err := env.check(s); err != nil {
			continue
		}
		t, err := Build(env, s, pat)
		if err != nil {
			cands = append(cands, Candidate{Strategy: s, Err: err})
			continue
		}
		cands = append(cands, Candidate{Strategy: s, Cost: t.EstCost})
		if best == nil || t.EstCost < best.EstCost {
			best = t
		}
	}
	if best == nil {
		if len(cands) == 0 {
			return nil, nil, fmt.Errorf("plan: no index built")
		}
		return nil, cands, fmt.Errorf("plan: no executable plan: %w", cands[0].Err)
	}
	return best, cands, nil
}
