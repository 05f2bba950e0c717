package plan

import (
	"fmt"
	"sync"

	"repro/internal/pathdict"
	"repro/internal/xpath"
)

// OpKind identifies a physical operator. The algebra is small and closed:
// every strategy's plan is a tree over these eight operators, which is what
// lets one executor (and one EXPLAIN renderer) serve all of them — the
// strategies differ only in which access method their IndexProbe leaves use
// and in what the probes cost.
type OpKind uint8

const (
	// OpIndexProbe materialises one covering branch with the strategy's
	// free access-method probe (one ROOTPATHS lookup, an edge-index walk,
	// m ASR relation probes, ...). Leaves of every branch-based plan.
	OpIndexProbe OpKind = iota
	// OpHashJoin joins the accumulated relation with a materialised branch
	// on the id of their deepest shared twig node, then projects away
	// columns no later operator needs and deduplicates.
	OpHashJoin
	// OpINLJoin is the index-nested-loop join of paper Section 3.3: the
	// branch below the join node is probed once per distinct id in the
	// accumulated relation (BoundIndex-style), instead of being
	// materialised. Chosen when the branch is estimated to be much less
	// selective than the accumulated relation.
	OpINLJoin
	// OpPathFilter semi-joins the accumulated relation against a branch
	// that adds no new columns (a synthetic value branch on an interior
	// node whose path is already covered): a pure filter.
	OpPathFilter
	// OpStructuralJoin reduces the whole twig with region-encoded binary
	// structural semi-joins (one bottom-up and one top-down pass) over its
	// OpRegionScan children — the containment-join extension strategy.
	OpStructuralJoin
	// OpRegionScan fetches the region-encoded candidate list of one twig
	// node (element-list B+-tree, or the value index for valued nodes).
	OpRegionScan
	// OpProject keeps only the output node's column.
	OpProject
	// OpDedup sorts and deduplicates the output ids (the plan's final
	// DISTINCT).
	OpDedup
)

var opNames = [...]string{
	OpIndexProbe:     "scan",
	OpHashJoin:       "hash-join",
	OpINLJoin:        "inl-join",
	OpPathFilter:     "path-filter",
	OpStructuralJoin: "structural-join",
	OpRegionScan:     "region-scan",
	OpProject:        "project",
	OpDedup:          "dedup",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return "unknown-op"
}

// Node is one physical operator in a plan tree. The builder fills the
// estimates and finalize precomputes the execution layout; after that a
// tree is immutable — every per-run value (actual cardinalities, counters,
// output blocks) lives in the Runtime executing it, which is what lets the
// engine's plan cache hand one tree to any number of concurrent queries.
type Node struct {
	Kind    OpKind
	Detail  string  // access-method / join-site rendering for EXPLAIN
	EstRows int64   // estimated output cardinality
	EstCost float64 // estimated cost of the subtree rooted here

	Children []*Node

	// ActRows is the operator's actual output cardinality, or -1 when the
	// operator did not run (not yet executed, or skipped because an
	// earlier operator produced an empty relation). Always -1 on plan
	// templates; filled on the executed view trees ExecStats.Plan carries.
	ActRows int64

	// Trace measurements, filled on executed view trees of traced runs
	// only (Tree.Traced). ElapsedNS is the operator's inclusive subtree
	// wall time; SelfNS is ElapsedNS minus the children's inclusive
	// times (a child runs inside its parent's window, so it never goes
	// negative).
	// Reads/ReadBytes attribute device-read deltas sampled around the
	// operator when the env supplies an IOStat source.
	ElapsedNS int64
	SelfNS    int64
	Reads     int64
	ReadBytes int64

	// Builder state consumed by finalize and the executor.
	branch *xpath.Branch        // probed branch (IndexProbe, INLJoin, PathFilter)
	jNode  *xpath.Node          // join / filter twig node (HashJoin, INLJoin, PathFilter)
	keep   map[*xpath.Node]bool // columns retained after this operator
	output *xpath.Node          // Project: the output column
	twig   *xpath.Node          // RegionScan: twig node whose candidates are fetched

	// Execution layout, precomputed once by finalize so the executor and
	// the evaluators never compile a pattern or search a column at run
	// time.
	ord     int       // index into the runtime's per-operator state array
	jIdx    int       // join node's index in branch.Nodes (joins)
	jCol    int       // join node's column in the left input (joins)
	keyCol  int       // branch leaf column in the probe output (PathFilter)
	lCol    int       // jNode's column in the left input (PathFilter)
	outCol  int       // output node's column (Project)
	keepIdx []int     // retained-column projection (nil = keep every column)
	spec    probeSpec // compiled free-probe pattern (IndexProbe)
	bspec   probeSpec // compiled bound-probe pattern (INLJoin)
}

// probeSpec is a branch probe's designator pattern, compiled once at
// finalize time. Strategies that resolve branches through the dictionary
// read it instead of recompiling per execution; the edge walk ignores it
// (it works from the branch's label steps directly).
type probeSpec struct {
	ok         bool             // false: a label never occurs in the data
	pat        []pathdict.PStep // compiled designator pattern
	suffix     pathdict.Path    // deepest //-free suffix (the B+-tree probe suffix)
	simple     bool             // no interior //: unique assignment per row
	anchored   []pathdict.PStep // pat with the leading // removed (per-path families)
	needRooted bool             // pattern is root-anchored (no leading //)
}

// Walk visits the subtree in depth-first pre-order, passing each node's
// depth (0 at n).
func (n *Node) Walk(fn func(node *Node, depth int)) {
	var rec func(c *Node, d int)
	rec = func(c *Node, d int) {
		fn(c, d)
		for _, ch := range c.Children {
			rec(ch, d+1)
		}
	}
	rec(n, 0)
}

// Tree is a complete physical plan: the operator tree, the strategy whose
// access methods its probes use, and the plan-level estimates. After Build
// a tree is immutable and safe to execute from any number of goroutines
// concurrently — runtimes pool on it.
type Tree struct {
	Strategy Strategy
	Pattern  *xpath.Pattern
	Root     *Node
	// EstCost is the cost model's estimate for the whole tree (the number
	// the planner minimises when choosing between strategies).
	EstCost float64
	// Branches is the number of covering branches the plan evaluates.
	Branches int
	// Executed reports whether this tree carries actuals. False on plan
	// templates; true on the executed view trees ExecStats.Plan carries.
	Executed bool
	// Traced reports whether the run recorded per-operator wall time —
	// the nodes of this view carry ElapsedNS/SelfNS (view trees only).
	Traced bool

	// Finalize products: the flat operator list (index = Node.ord) and the
	// pool of reusable Runtimes.
	nodes []*Node
	pool  sync.Pool
}

// Walk visits every operator of the tree in depth-first pre-order.
func (t *Tree) Walk(fn func(node *Node, depth int)) { t.Root.Walk(fn) }

// probeDetail renders the access-method description of a branch probe.
func probeDetail(strat Strategy, br xpath.Branch) string {
	return fmt.Sprintf("%s %s", strategies[strat].access, br.String())
}
