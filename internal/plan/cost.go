package plan

import (
	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// The cost model. Costs are in abstract units calibrated against the
// substrate's measured query latencies (see docs/PLANNER.md for the
// calibration procedure and the measurements behind each constant): one
// unit is roughly the cost of streaming one row out of a positioned
// B+-tree range scan (~150ns on the benchmark host), and every other
// weight is expressed relative to it. The planner only ever *compares*
// costs, so the absolute unit cancels; what matters are the ratios.
const (
	// costLookup is one cold index probe: a root-to-leaf B+-tree descent
	// that positions a range scan (about three page fixes plus binary
	// searches).
	costLookup = 40.0
	// costLookupDP is a descent into the DATAPATHS tree, which stores a
	// row per *subpath* of every node — by far the largest tree of the
	// family (paper Figure 9) — so its descents touch deeper, colder
	// pages and compare longer composite keys.
	costLookupDP = 44.0
	// costBoundProbe is one bound (index-nested-loop) probe: repeated
	// descents keyed by consecutive head ids land on the same few hot
	// pages — and the batched executor reuses one iterator and one set of
	// decode buffers across the whole probe stream — so a bound probe
	// costs a fraction of a cold lookup.
	costBoundProbe = 5.0
	// costRow is streaming one index row (key decode + id-list delta
	// decode + output tuple).
	costRow = 1.0
	// costRowASR is streaming one Access Support Relation row: a flat id
	// tuple out of a small dedicated relation, measurably cheaper than
	// the path indices' id-list rows.
	costRowASR = 0.6
	// costRowPathTable is a JI/XRel relation row (flat, but composed or
	// climbed afterwards).
	costRowPathTable = 0.8
	// costSchemaPath is examining one candidate schema path during the
	// per-path families' pattern-to-relation expansion: ASR/JI/XRel match
	// every relation's path against the branch pattern on each probe
	// (MatchingPaths is a linear scan of the relation registry), which is
	// what makes them pay a fixed per-branch overhead proportional to the
	// schema size — the cost Q5-style selective twigs expose.
	costSchemaPath = 0.05
	// costClimb is one parent/child point lookup through the edge link
	// indices — a descent that returns a single row.
	costClimb = 8.0
	// costJoinTuple is flowing one tuple through a hash join, projection
	// or duplicate elimination. Recalibrated for the batched executor:
	// rows flow through joins as flat block copies against an open-
	// addressed id table, and DISTINCT is an in-place block sort rather
	// than a map-keyed materialisation, so a join tuple now costs less
	// than streaming an index row (which still pays key decode plus
	// id-list delta decode).
	costJoinTuple = 0.6
	// costRegionRow is streaming one region out of the element-list
	// B+-tree: a flat (start, end, level, id) record with no id-list
	// decode or tuple allocation.
	costRegionRow = 0.25
	// costSJTuple is advancing one region through a structural semi-join
	// merge pass — a pointer walk over two sorted arrays, the cheapest
	// per-tuple operation in the system.
	costSJTuple = 0.2
)

// schemaSurcharge is the per-probe cost of expanding a branch pattern
// against the strategy's relation registry / path summary.
func schemaSurcharge(env *Env, strat Strategy) float64 {
	n := 0
	switch strat {
	case ASRPlan:
		n = env.ASR.Paths().Len()
	case JoinIndexPlan:
		n = env.JI.Paths().Len()
	case XRelPlan:
		n = env.XRel.Paths().Len()
	case DataGuideEdgePlan, FabricEdgePlan:
		if env.Stats != nil {
			n = env.Stats.RootedPaths().Len()
		}
	}
	return float64(n) * costSchemaPath
}

// probeCost estimates the cost of materialising branch br with the
// strategy's free probe, given est — the exact number of result rows the
// probe yields (from the collected statistics). The shapes mirror the
// paper's Section 5 analysis: the path indices pay one descent and stream
// rows; the per-path families pay a schema expansion plus one descent per
// matching concrete path (the Section 5.2.6 recursion effect); the
// edge/DataGuide/Fabric/XRel plans additionally pay a link-index climb per
// result row per level to recover branch-point ids.
func probeCost(env *Env, strat Strategy, br xpath.Branch, est int64) float64 {
	e := float64(est)
	depth := float64(len(br.Steps))
	pat, ok := compileBranch(env.Dict, br)
	if !ok {
		// A label that never occurs: the probe is a single empty lookup.
		return strategies[strat].lookup
	}
	switch strat {
	case RootPathsPlan, DataPathsPlan:
		return strategies[strat].lookup + e*costRow
	case EdgePlan:
		return edgeWalkCost(env, br, pat, est)
	case DataGuideEdgePlan:
		m := matchingPathCount(env, pat)
		structRows := float64(structuralEst(env, pat))
		c := schemaSurcharge(env, strat) + m*costLookup + structRows*costRow + e*(depth-1)*costClimb
		if br.HasValue {
			// Separate value-index probe, semi-joined against the extent —
			// the separated structure/value cost Figure 11 isolates.
			v := float64(labelValueEst(env, pat, br.Value))
			c += costLookup + v*costRow + (structRows+v)*costJoinTuple
		}
		return c
	case FabricEdgePlan:
		m := matchingPathCount(env, pat)
		return schemaSurcharge(env, strat) + m*costLookup + e*costRow + e*(depth-1)*costClimb
	case ASRPlan:
		m := matchingPathCount(env, pat)
		return schemaSurcharge(env, strat) + m*costLookup + e*strategies[strat].row
	case JoinIndexPlan:
		// One backward-by-value seed probe per matching path, then one
		// bound composition probe per partial tuple per extra segment.
		m := matchingPathCount(env, pat)
		extraSegs := depth - 2
		if extraSegs < 0 {
			extraSegs = 0
		}
		return schemaSurcharge(env, strat) + m*costLookup + e*strategies[strat].row + e*extraSegs*costBoundProbe
	case XRelPlan:
		m := matchingPathCount(env, pat)
		return schemaSurcharge(env, strat) + m*costLookup + e*strategies[strat].row + e*(depth-1)*costClimb
	}
	return costLookup + e*costRow
}

// edgeWalkCost prices the per-step edge-index walk: bottom-up from the
// value index when the branch is valued (one climb per candidate per
// level), top-down from the roots otherwise (one children lookup per
// frontier node per level, frontier sizes estimated exactly from the
// per-prefix statistics).
func edgeWalkCost(env *Env, br xpath.Branch, pat []pathdict.PStep, est int64) float64 {
	depth := float64(len(br.Steps))
	if br.HasValue {
		v := float64(labelValueEst(env, pat, br.Value))
		return costLookup + v*costRow + v*(depth-1)*costClimb
	}
	if env.Stats == nil {
		return costLookup + float64(est)*costRow
	}
	// Top-down: the roots' children scan plus one children lookup per
	// frontier node per level (frontier sizes are exact per-prefix counts).
	var frontier float64
	for i := 1; i <= len(pat); i++ {
		frontier += float64(env.Stats.EstimateBranch(pat[:i], false, ""))
	}
	return costLookup + frontier*costClimb + float64(est)*costRow
}

// matchingPathCount returns the number of distinct rooted schema paths the
// branch pattern matches (>= 1 so a statless environment still ranks).
func matchingPathCount(env *Env, pat []pathdict.PStep) float64 {
	if env.Stats == nil {
		return 1
	}
	m := env.Stats.CountMatchingRootedPaths(pat)
	if m < 1 {
		m = 1
	}
	return float64(m)
}

// structuralEst is the branch's match count ignoring its value condition.
func structuralEst(env *Env, pat []pathdict.PStep) int64 {
	if env.Stats == nil {
		return 0
	}
	return env.Stats.EstimateBranch(pat, false, "")
}

// labelValueEst counts nodes of the branch's leaf label carrying the given
// value anywhere in the store — the rows a value-index probe streams.
func labelValueEst(env *Env, pat []pathdict.PStep, value string) int64 {
	if env.Stats == nil {
		return 0
	}
	leaf := []pathdict.PStep{{Desc: true, Sym: pat[len(pat)-1].Sym}}
	return env.Stats.EstimateBranch(leaf, true, value)
}

// regionScanEst estimates one structural-join candidate list: all nodes
// with the twig node's label (value-restricted when the node is valued).
func regionScanEst(env *Env, n *xpath.Node) int64 {
	if env.Stats == nil || env.Dict == nil {
		return 0
	}
	sym, ok := env.Dict.Sym(n.Label)
	if !ok {
		return 0
	}
	pat := []pathdict.PStep{{Desc: true, Sym: sym}}
	if n.HasValue {
		return env.Stats.EstimateBranch(pat, true, n.Value)
	}
	return env.Stats.EstimateBranch(pat, false, "")
}

// scanCost prices one region scan.
func scanCost(est int64) float64 { return costLookup + float64(est)*costRegionRow }

// joinCost prices hash-joining two relations of the given estimated sizes
// (build + probe + the DISTINCT projection that follows every join).
func joinCost(left, right int64) float64 {
	return float64(left+right) * 2 * costJoinTuple
}

// inlJoinCost prices an index-nested-loop join: one bound probe per
// distinct outer id plus the rows streamed across all probes. Assuming the
// branch's est rows spread uniformly over the join node's jCount
// instances, the probed accEst heads cover about est*accEst/jCount of
// them (everything, when the join node is a unique ancestor like /site).
// The per-path strategies additionally pay their schema expansion once.
func inlJoinCost(env *Env, strat Strategy, accEst, branchEst, jCount int64) float64 {
	rows := branchEst
	if jCount > 0 && accEst < jCount {
		rows = branchEst * accEst / jCount
		if rows < 1 {
			rows = 1
		}
	}
	return schemaSurcharge(env, strat) + float64(accEst)*costBoundProbe + float64(rows)*strategies[strat].row
}

// projectCost and dedupCost price the final projection / DISTINCT.
func projectCost(est int64) float64 { return float64(est) * costJoinTuple }
func dedupCost(est int64) float64   { return float64(est) * costJoinTuple }
