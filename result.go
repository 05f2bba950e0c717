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
	// actual cardinality per operator, plus per-operator timings when the
	// run was traced. Nil for Oracle queries.
	Plan *PlanNode

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

	// Elapsed, Self, Reads and ReadBytes are set when the run was traced —
	// by ExplainAnalyze, and on every query when Options.SlowQueryThreshold
	// enables always-on tracing — and zero otherwise. Elapsed is the
	// operator's wall time including its children; Self is Elapsed minus
	// the children's, so the self times of a plan sum to the root's
	// Elapsed. Reads and ReadBytes are the page-device reads (buffer pool
	// misses) observed while the operator ran: exact for a query running
	// alone, approximate when concurrent queries on the same DB attribute
	// each other's reads. See docs/OBSERVABILITY.md.
	Elapsed   time.Duration
	Self      time.Duration
	Reads     int64
	ReadBytes int64

	Children []*PlanNode

	traced bool
}

// Render draws the plan subtree as an indented text tree with estimated
// vs. actual cardinalities per operator, and — for a traced run —
// inclusive and self time and attributed device reads.
func (n *PlanNode) Render() string {
	var b strings.Builder
	plan.DrawTree(&b, n, func(p *PlanNode) string {
		return plan.OpLine(p.Op, p.Detail, p.EstRows, p.ActualRows, true, p.traced, p.Elapsed, p.Self, p.Reads)
	}, func(p *PlanNode) []*PlanNode { return p.Children })
	return b.String()
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
			Elapsed:    time.Duration(n.ElapsedNS),
			Self:       time.Duration(n.SelfNS),
			Reads:      n.Reads,
			ReadBytes:  n.ReadBytes,
			traced:     t.Traced,
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

// Nodes materialises the matched nodes from the current version (safe to
// call concurrently with Insert/Delete; ids whose nodes have since been
// deleted are skipped). A database opened from a file reads its documents
// from disk the first time anything needs them; if that read fails, Nodes
// returns the error, which matches ErrCorruptPage when a page failed its
// checksum.
func (r *Result) Nodes() ([]Node, error) {
	out := make([]Node, 0, len(r.IDs))
	err := r.db.eng.ViewNodes(func(store *xmldb.Store) {
		for _, id := range r.IDs {
			n := store.NodeByID(id)
			if n == nil {
				continue
			}
			out = append(out, Node{ID: id, Label: n.Label, Value: n.Value, Path: store.Path(n)})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteXML serialises the subtree of one matched node to w, from the
// current version; like Nodes, it may have to read the documents first.
func (r *Result) WriteXML(w io.Writer, id int64) error {
	err := fmt.Errorf("twigdb: no node with id %d", id)
	if verr := r.db.eng.ViewNodes(func(store *xmldb.Store) {
		if n := store.NodeByID(id); n != nil {
			err = xmldb.WriteXML(w, n)
		}
	}); verr != nil {
		return verr
	}
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
