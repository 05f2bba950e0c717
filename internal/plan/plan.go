// Package plan translates query twig patterns into physical-operator plan
// trees, one plan builder per member of the index family, costs them with a
// calibrated cost model, and executes them.
//
// The algebra mirrors how a relational processor runs the paper's plans:
//
//  1. cover the twig with its root-to-leaf branch paths (Section 2.2);
//  2. materialise each branch with an OpIndexProbe leaf — how a branch is
//     probed is what distinguishes the strategies (one ROOTPATHS lookup vs.
//     a cascade of edge joins vs. m ASR relation probes, ...);
//  3. stitch the branch relations together with OpHashJoin / OpINLJoin /
//     OpPathFilter operators on the id of the deepest shared twig node,
//     choosing index-nested-loop probes when the statistics say the
//     remaining branch is much less selective than the intermediate result
//     and the strategy supports bound (BoundIndex-style) probes;
//  4. project and deduplicate the output node's column (OpProject, OpDedup).
//
// On top sits a cost-based planner (Choose): it enumerates the strategies
// whose indices are built, costs each strategy's tree, and picks the
// cheapest — the role DB2's optimizer plays in the paper's experiments.
package plan

import (
	"fmt"

	"repro/internal/containment"
	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/stats"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Strategy selects the index family member used to evaluate queries.
type Strategy int

const (
	// RootPathsPlan evaluates every branch with one ROOTPATHS lookup and
	// merges branches with hash joins. No bound probes (the paper's
	// Figure 12(d) weakness).
	RootPathsPlan Strategy = iota
	// DataPathsPlan evaluates branches with DATAPATHS lookups; unselective
	// branches are evaluated with index-nested-loop bound probes.
	DataPathsPlan
	// EdgePlan uses only the edge table's value/forward/backward link
	// indices; every path step costs a join.
	EdgePlan
	// DataGuideEdgePlan looks up structure in the DataGuide and values in
	// the edge value index, joining the two (the separated-structure cost
	// of Figure 11).
	DataGuideEdgePlan
	// FabricEdgePlan looks up (path, value) pairs in the simulated Index
	// Fabric and recovers branch points through backward-link joins.
	FabricEdgePlan
	// ASRPlan probes one Access Support Relation per concrete schema path
	// matching each branch.
	ASRPlan
	// JoinIndexPlan probes per-path join indices, composing two of them
	// whenever an interior node is needed.
	JoinIndexPlan
	// XRelPlan resolves paths through XRel's normalised path table (one
	// lookup per matching path id) and climbs to branch points through the
	// edge indices.
	XRelPlan
	// StructuralJoinPlan evaluates twigs with region-encoded binary
	// structural semi-joins (the containment-join extension; not available
	// to the paper inside DB2).
	StructuralJoinPlan
	// NumStrategies is the number of strategies; it stays last.
	NumStrategies
)

// strategies is the one table of the strategy family, indexed by Strategy:
// the name the paper's figures use, the access-method name EXPLAIN shows,
// the index kinds that must be built (and whether statistics must be),
// whether the access method can probe bound to a head id — only ROOTPATHS
// cannot among the branch strategies, the asymmetry behind the paper's
// Figure 12(d) — the cost of one free-probe descent and of streaming one
// probe output row (cost.go), and the branch evaluator's constructor. The
// structural join runs twig-wide over region scans, priced and executed on
// their own (eval_sj.go), so its row stops at what it requires.
var strategies = [NumStrategies]struct {
	name, access string
	requires     []index.Kind
	needStats    bool
	canBound     bool
	lookup, row  float64
	eval         func(*Env) evaluator
}{
	RootPathsPlan: {name: "RP", access: "ROOTPATHS", requires: []index.Kind{index.KindRootPaths},
		lookup: costLookup, row: costRow, eval: newRPEval},
	DataPathsPlan: {name: "DP", access: "DATAPATHS", requires: []index.Kind{index.KindDataPaths},
		canBound: true, lookup: costLookupDP, row: costRow, eval: newDPEval},
	EdgePlan: {name: "Edge", access: "edge-links", requires: []index.Kind{index.KindEdge},
		canBound: true, lookup: costLookup, row: costRow, eval: newEdgeEval},
	DataGuideEdgePlan: {name: "DG+Edge", access: "DataGuide+value", requires: []index.Kind{index.KindDataGuide, index.KindEdge},
		canBound: true, lookup: costLookup, row: costRow, eval: newDGEval},
	FabricEdgePlan: {name: "IF+Edge", access: "IndexFabric", requires: []index.Kind{index.KindIndexFabric, index.KindEdge},
		needStats: true, canBound: true, lookup: costLookup, row: costRow, eval: newIFEval},
	ASRPlan: {name: "ASR", access: "ASR", requires: []index.Kind{index.KindASR},
		canBound: true, lookup: costLookup, row: costRowASR, eval: newASREval},
	JoinIndexPlan: {name: "JI", access: "JoinIndex", requires: []index.Kind{index.KindJoinIndex},
		canBound: true, lookup: costLookup, row: costRowPathTable, eval: newJIEval},
	XRelPlan: {name: "XRel+Edge", access: "XRel+Edge", requires: []index.Kind{index.KindXRel, index.KindEdge},
		canBound: true, lookup: costLookup, row: costRowPathTable, eval: newXRelEval},
	StructuralJoinPlan: {name: "SJ", access: "element-lists", requires: []index.Kind{index.KindContainment, index.KindEdge}},
}

func (s Strategy) valid() bool { return s >= 0 && s < NumStrategies }

func (s Strategy) String() string {
	if !s.valid() {
		return "unknown"
	}
	return strategies[s].name
}

// Requires returns the index kinds the strategy needs built.
func (s Strategy) Requires() []index.Kind { return strategies[s].requires }

// Env bundles the store and whatever indices have been built. A strategy
// fails with a descriptive error if an index it needs is missing.
type Env struct {
	Store *xmldb.Store
	Dict  *pathdict.Dict
	Stats *stats.Stats

	RP   *index.Paths // ROOTPATHS
	DP   *index.Paths // DATAPATHS: the headed shape
	Edge *index.Edge
	DG   *index.DataGuide
	IF   *index.IndexFabric
	ASR  *index.ASR
	JI   *index.JoinIndex
	XRel *index.XRel

	// Containment is the region-encoded element-list index used by the
	// structural-join extension strategy.
	Containment *containment.Index

	// INLFactor overrides the index-nested-loop threshold (0 uses the
	// default; negative disables INL entirely). Tests set it to force or
	// forbid bound probes.
	INLFactor int
	// NoReorder disables statistics-driven branch ordering (branches run
	// in pattern order); tests set it to pin the branch order.
	NoReorder bool

	// TraceAll turns on per-operator wall-time tracing for every
	// execution against this env. The engine sets
	// it when a slow-query threshold is configured, so any
	// over-threshold query already carries its trace; Run's trace
	// argument forces tracing for a single run regardless. When off,
	// tracing costs one predictable branch per operator, and the warmed
	// cache-hit path stays allocation-free either way.
	TraceAll bool
	// IOStat, when non-nil and tracing is on, is sampled around each
	// operator to attribute device reads (count and bytes) to the
	// operator that triggered them. The counters are process-global, so
	// the attribution is exact when the query runs alone and approximate
	// when other queries run concurrently.
	IOStat func() (reads, bytes int64)
}

// slot is one of Env's typed index fields, reached by its kind.
type slot interface {
	get() any      // what is built there, nil when nothing is
	set(built any) // nil clears
}

type slotOf[P comparable] struct{ field *P }

func (s slotOf[P]) get() any {
	var unbuilt P
	if *s.field == unbuilt {
		return nil
	}
	return *s.field
}
func (s slotOf[P]) set(built any) { *s.field, _ = built.(P) }

func at[P comparable](field *P) slot { return slotOf[P]{field} }

// slots lists Env's index fields by kind — the one place that does.
func (e *Env) slots() [index.NumKinds]slot {
	return [...]slot{
		index.KindRootPaths: at(&e.RP), index.KindDataPaths: at(&e.DP), index.KindEdge: at(&e.Edge),
		index.KindDataGuide: at(&e.DG), index.KindIndexFabric: at(&e.IF), index.KindASR: at(&e.ASR),
		index.KindJoinIndex: at(&e.JI), index.KindXRel: at(&e.XRel), index.KindContainment: at(&e.Containment),
	}
}

// Structures returns the built persisted structures in kind order.
func (e *Env) Structures() []index.Structure {
	var out []index.Structure
	for _, s := range e.slots() {
		if st, ok := s.get().(index.Structure); ok {
			out = append(out, st)
		}
	}
	return out
}

// Install puts what index.Build or index.Open returned for kind k into its
// field; nil clears the field.
func (e *Env) Install(k index.Kind, built any) { e.slots()[k].set(built) }

// check reports whether what strat requires is built.
func (e *Env) check(strat Strategy) error {
	if !strat.valid() {
		return fmt.Errorf("plan: unknown strategy %d", strat)
	}
	slots := e.slots()
	for _, k := range strategies[strat].requires {
		if slots[k].get() == nil {
			return fmt.Errorf("plan: %v index not built (strategy %v)", k, strat)
		}
	}
	if strategies[strat].needStats && e.Stats == nil {
		return fmt.Errorf("plan: strategy %v requires statistics", strat)
	}
	return nil
}

// inlThreshold returns the effective INL factor.
func (e *Env) inlThreshold() (int64, bool) {
	switch {
	case e.INLFactor < 0:
		return 0, false
	case e.INLFactor == 0:
		return inlFactor, true
	default:
		return int64(e.INLFactor), true
	}
}

// JoinCounters accumulates the join work of a plan over rows of node ids
// (the paper's n-tuples (d1, ..., dn) identifying a match).
type JoinCounters struct {
	TuplesIn  int64 // tuples consumed by joins
	TuplesOut int64 // tuples produced by joins
}

// Add accumulates other into c.
func (c *JoinCounters) Add(other JoinCounters) {
	c.TuplesIn += other.TuplesIn
	c.TuplesOut += other.TuplesOut
}

// ExecStats reports the work a plan performed; these counters are the
// machine-independent stand-ins for the paper's wall-clock measurements.
// They are aggregated from the executed plan tree's per-operator counters
// (each operator counts its own probes, rows and join tuples).
type ExecStats struct {
	IndexLookups   int64 // index probe operations (range scans started)
	RowsScanned    int64 // index rows visited across all probes
	INLProbes      int64 // bound probes performed by index-nested-loop joins
	UsedINL        bool
	RelationsUsed  int // distinct ASR/JI relations touched
	Join           JoinCounters
	BranchesJoined int
	// Plan is the executed physical plan tree, with per-operator estimated
	// and actual cardinalities (nil when execution failed before a tree
	// was built).
	Plan *Tree

	relations map[pathdict.PathID]struct{}
}

func (es *ExecStats) touchRelation(id pathdict.PathID) {
	if es.relations == nil {
		es.relations = map[pathdict.PathID]struct{}{}
	}
	es.relations[id] = struct{}{}
	es.RelationsUsed = len(es.relations)
}

// inlFactor is the planner's threshold: a branch is evaluated with bound
// probes when its estimated row count exceeds inlFactor times the
// estimated intermediate result size.
const inlFactor = 4

// evaluator is the strategy-specific access-method machinery behind the
// probe operators. Evaluators append rows into caller-owned blocks and
// count their work into the caller's per-operator stats; one evaluator is
// cached on each Runtime and reused across executions, so its internal
// scratch (decode buffers, iterators) amortises to zero allocations. An
// evaluator is not goroutine-safe; neither is the Runtime that owns it.
type evaluator interface {
	// free evaluates n's branch from scratch, appending rows with one
	// column per branch.Nodes entry into out (already reset to that
	// width). Feeds OpIndexProbe.
	free(n *Node, out *brel, es *ExecStats) error
	// bound evaluates the branch below branch.Nodes[n.jIdx] for each head
	// id in jids (sorted, distinct), appending one group per matching id
	// into out (already reset to the sub-branch width). Feeds OpINLJoin;
	// only strategies whose table row says canBound support it.
	bound(n *Node, jids []int64, out *boundRel, es *ExecStats) error
}

// branchOrder orders branches by estimated (exact) match count, cheapest
// first, so the intermediate result starts small — the paper's optimizer
// would do the same from its collected statistics. Ties keep pattern order;
// env.NoReorder keeps pattern order outright.
func branchOrder(env *Env, branches []xpath.Branch) (order []int, ests []int64) {
	ests = make([]int64, len(branches))
	for i, br := range branches {
		ests[i] = estimateBranch(env, br)
	}
	order = make([]int, len(branches))
	for i := range order {
		order[i] = i
	}
	if !env.NoReorder {
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && ests[order[j]] < ests[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	return order, ests
}

// coveringBranches returns the root-to-leaf branches of the pattern plus a
// synthetic branch for every *interior* node carrying a value condition
// (e.g. /a[. = 'v']/b), so that all node conditions are enforced.
func coveringBranches(pat *xpath.Pattern) []xpath.Branch {
	branches := pat.Branches()
	var steps []xpath.Step
	var nodes []*xpath.Node
	var rec func(n *xpath.Node)
	rec = func(n *xpath.Node) {
		steps = append(steps, xpath.Step{Axis: n.Axis, Label: n.Label})
		nodes = append(nodes, n)
		if n.HasValue && len(n.Children) > 0 {
			branches = append(branches, xpath.Branch{
				Steps:    append([]xpath.Step(nil), steps...),
				Nodes:    append([]*xpath.Node(nil), nodes...),
				Value:    n.Value,
				HasValue: true,
			})
		}
		for _, c := range n.Children {
			rec(c)
		}
		steps = steps[:len(steps)-1]
		nodes = nodes[:len(nodes)-1]
	}
	rec(pat.Root)
	return branches
}

// compileBranch converts a branch to a designator pattern. ok is false when
// some label never occurs in the data (the branch matches nothing).
func compileBranch(dict *pathdict.Dict, br xpath.Branch) ([]pathdict.PStep, bool) {
	descs := make([]bool, len(br.Steps))
	labels := make([]string, len(br.Steps))
	for i, s := range br.Steps {
		descs[i] = s.Axis == xpath.Descendant
		labels[i] = s.Label
	}
	return pathdict.CompileSteps(dict, descs, labels)
}

// estimateBranch returns the exact row count a FreeIndex probe of the
// branch would produce, from the collected statistics (0 when unknown).
func estimateBranch(env *Env, br xpath.Branch) int64 {
	if env.Stats == nil {
		return 0
	}
	pat, ok := compileBranch(env.Dict, br)
	if !ok {
		return 0
	}
	return env.Stats.EstimateBranch(pat, br.HasValue, br.Value)
}

// suffixSyms returns the forward designator sequence of the deepest //-free
// suffix of pat (the probe suffix).
func suffixSyms(pat []pathdict.PStep) pathdict.Path {
	k := pathdict.LongestAnchoredSuffix(pat)
	out := make(pathdict.Path, k)
	for i := 0; i < k; i++ {
		out[i] = pat[len(pat)-k+i].Sym
	}
	return out
}

// newEvaluator constructs the access-method adapter for a strategy. The
// per-operator counters are passed per call (each probe operator hands its
// own stats in, so the work is attributed to the operator that did it).
func newEvaluator(env *Env, strat Strategy) (evaluator, error) {
	if err := env.check(strat); err != nil {
		return nil, err
	}
	if strategies[strat].eval == nil {
		return nil, fmt.Errorf("plan: strategy %v has no branch evaluator", strat)
	}
	return strategies[strat].eval(env), nil
}
