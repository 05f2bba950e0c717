package twigdb

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/xmldb"
)

// Result is the outcome of one query: the distinct, document-order-sorted
// ids of the nodes matching the query's output node, plus execution
// counters and the physical plan that ran.
type Result struct {
	Query string
	// Strategy is the strategy that executed the query. For Query (and
	// QueryWith(Auto, ...)) it is the one the cost-based planner chose.
	Strategy Strategy
	IDs      []int64
	Stats    ExecStats
	// Plan is the executed physical-operator tree: probe/join/filter/
	// project operators with the planner's estimated and the executor's
	// actual cardinality per operator. Nil for Oracle queries.
	Plan *PlanNode
	// Trace is the per-operator span tree of a traced execution — set by
	// ExplainAnalyze, and on every query when Options.SlowQueryThreshold
	// enables always-on tracing. Nil otherwise. Aligned one-to-one with
	// Plan; see docs/OBSERVABILITY.md for the timing semantics.
	Trace *TraceNode

	// SnapshotSeq is the sequence number of the database version that
	// answered, set on every Result: the version current when an ordinary
	// query started, the requested one for QueryAsOf, and for a query
	// inside a Tx the version the transaction began from.
	SnapshotSeq uint64

	db *DB
}

// PlanNode is one operator of an executed query plan.
type PlanNode struct {
	// Op is the operator kind: "scan", "hash-join", "inl-join",
	// "path-filter", "structural-join", "region-scan", "project", "dedup".
	Op string
	// Detail describes the operator's access method or join site (e.g.
	// "DATAPATHS /site//item[. = 'v']", "at site").
	Detail string
	// EstRows is the planner's estimated output cardinality.
	EstRows int64
	// ActualRows is the executed cardinality, or -1 when the operator was
	// skipped (an earlier operator produced an empty relation).
	ActualRows int64
	Children   []*PlanNode
}

// Render draws the plan subtree as an indented text tree with estimated
// vs. actual cardinalities per operator.
func (n *PlanNode) Render() string {
	var b strings.Builder
	plan.DrawTree(&b, n, func(p *PlanNode) string {
		line := p.Op
		if p.Detail != "" {
			line += " " + p.Detail
		}
		if p.ActualRows >= 0 {
			line += fmt.Sprintf("  (est=%d rows, act=%d)", p.EstRows, p.ActualRows)
		} else {
			line += fmt.Sprintf("  (est=%d rows, not run)", p.EstRows)
		}
		return line
	}, func(p *PlanNode) []*PlanNode { return p.Children })
	return b.String()
}

// TraceNode is one operator span of a traced query execution (EXPLAIN
// ANALYZE): the plan operator plus its measured wall time and attributed
// device I/O. Elapsed is inclusive of the operator's children; Self is
// Elapsed minus the children's, so the self times of a trace sum to the
// root's Elapsed.
type TraceNode struct {
	Op         string
	Detail     string
	EstRows    int64
	ActualRows int64 // -1 when the operator never ran
	Elapsed    time.Duration
	Self       time.Duration
	// Reads and ReadBytes are the page-device reads (buffer pool misses)
	// observed while the operator ran. Exact for serial executions;
	// concurrent queries on the same DB may attribute each other's reads.
	Reads     int64
	ReadBytes int64
	Children  []*TraceNode
}

// Render draws the trace as an indented tree with per-operator estimated
// vs. actual rows, inclusive and self time, and attributed device reads.
func (n *TraceNode) Render() string {
	var b strings.Builder
	plan.DrawTree(&b, n, func(p *TraceNode) string {
		line := p.Op
		if p.Detail != "" {
			line += " " + p.Detail
		}
		if p.ActualRows < 0 {
			return line + fmt.Sprintf("  (est=%d rows, not run)", p.EstRows)
		}
		line += fmt.Sprintf("  (est=%d rows, act=%d, time=%s, self=%s",
			p.EstRows, p.ActualRows,
			p.Elapsed.Round(time.Microsecond), p.Self.Round(time.Microsecond))
		if p.Reads > 0 {
			line += fmt.Sprintf(", reads=%d", p.Reads)
		}
		return line + ")"
	}, func(p *TraceNode) []*TraceNode { return p.Children })
	return b.String()
}

// publicTrace converts a traced internal plan view to the public span tree.
func publicTrace(n *plan.Node) *TraceNode {
	if n == nil {
		return nil
	}
	out := &TraceNode{
		Op:         n.Kind.String(),
		Detail:     n.Detail,
		EstRows:    n.EstRows,
		ActualRows: n.ActRows,
		Elapsed:    time.Duration(n.ElapsedNS),
		Self:       time.Duration(n.SelfNS),
		Reads:      n.Reads,
		ReadBytes:  n.ReadBytes,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, publicTrace(c))
	}
	return out
}

// publicPlan converts an executed internal plan tree to the public mirror.
// The mirror's operators come out of one slab and their child links out of
// another, so the conversion costs two allocations whatever the tree's size.
func publicPlan(t *plan.Tree) *PlanNode {
	if t == nil {
		return nil
	}
	ops := countOps(t.Root)
	nodes := make([]PlanNode, 0, ops)
	links := make([]*PlanNode, 0, ops-1)
	var conv func(n *plan.Node) *PlanNode
	conv = func(n *plan.Node) *PlanNode {
		nodes = append(nodes, PlanNode{
			Op:         n.Kind.String(),
			Detail:     n.Detail,
			EstRows:    n.EstRows,
			ActualRows: n.ActRows,
		})
		out := &nodes[len(nodes)-1]
		if len(n.Children) > 0 {
			// Reserve this operator's links before descending: the
			// subtrees below append their own after them.
			first := len(links)
			links = links[:first+len(n.Children)]
			out.Children = links[first:len(links):len(links)]
			for i, c := range n.Children {
				out.Children[i] = conv(c)
			}
		}
		return out
	}
	return conv(t.Root)
}

func countOps(n *plan.Node) int {
	ops := 1
	for _, c := range n.Children {
		ops += countOps(c)
	}
	return ops
}

// Count returns the number of matches.
func (r *Result) Count() int { return len(r.IDs) }

// Node is a read-only view of a matched XML node.
type Node struct {
	ID    int64
	Label string // element tag or "@name" for attributes
	Value string // leaf string value, if any
	Path  string // slash-separated label path from the document root
}

// Nodes materialises the matched nodes (under the database's shared lock,
// so it is safe to call concurrently with Insert/Delete; ids whose nodes
// have since been deleted are skipped).
func (r *Result) Nodes() []Node {
	out := make([]Node, 0, len(r.IDs))
	r.db.eng.ViewNodes(func(store *xmldb.Store) {
		for _, id := range r.IDs {
			n := store.NodeByID(id)
			if n == nil {
				continue
			}
			out = append(out, Node{ID: id, Label: n.Label, Value: n.Value, Path: store.Path(n)})
		}
	})
	return out
}

// WriteXML serialises the subtree of one matched node to w, under the
// database's shared lock.
func (r *Result) WriteXML(w io.Writer, id int64) error {
	err := fmt.Errorf("twigdb: no node with id %d", id)
	r.db.eng.ViewNodes(func(store *xmldb.Store) {
		if n := store.NodeByID(id); n != nil {
			err = xmldb.WriteXML(w, n)
		}
	})
	return err
}

// String summarises the result for logs and examples.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d match(es) for %s via %s", len(r.IDs), r.Query, r.Strategy)
	if r.Stats.IndexLookups > 0 {
		fmt.Fprintf(&b, " (lookups=%d rows=%d", r.Stats.IndexLookups, r.Stats.RowsScanned)
		if r.Stats.UsedINL {
			fmt.Fprintf(&b, " inl=%d", r.Stats.INLProbes)
		}
		b.WriteString(")")
	}
	return b.String()
}
