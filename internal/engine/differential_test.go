package engine

// Differential test harness: the paper's seven index strategies (plus the
// ROOTPATHS/DATAPATHS pair and the structural-join extension) are eight
// independent implementations of the same twig-matching semantics, the
// cost-based auto-planner is a ninth contender (whatever plan it picks must
// agree), and the naive in-memory matcher is the oracle. On any document
// and any query they must all return the same sorted id set — which makes
// randomized cross-strategy comparison an unusually strong oracle for the
// planner, the operator executors and the concurrent read path. Failures
// are shrunk to a minimal document before reporting.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// diffStrategies are the cross-checked strategies, in the paper's naming.
var diffStrategies = []plan.Strategy{
	plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan,
	plan.DataGuideEdgePlan, plan.FabricEdgePlan, plan.ASRPlan,
	plan.JoinIndexPlan, plan.XRelPlan,
}

// Small alphabets keep the generated documents self-similar enough that
// random queries actually match (and // axes are genuinely recursive:
// labels reappear at several depths).
var (
	diffLabels = []string{"a", "b", "c", "d"}
	diffAttrs  = []string{"@x", "@y"}
	diffValues = []string{"v0", "v1", "v2"}
)

// genDoc builds a random document of up to maxNodes element/attribute
// nodes.
func genDoc(rng *rand.Rand, maxNodes int) *xmldb.Document {
	budget := 2 + rng.Intn(maxNodes-1)
	root := &xmldb.Node{Label: diffLabels[rng.Intn(len(diffLabels))]}
	budget--
	frontier := []*xmldb.Node{root}
	for budget > 0 && len(frontier) > 0 {
		parent := frontier[rng.Intn(len(frontier))]
		var child *xmldb.Node
		switch rng.Intn(4) {
		case 0:
			child = &xmldb.Node{
				Label:    diffAttrs[rng.Intn(len(diffAttrs))],
				Value:    diffValues[rng.Intn(len(diffValues))],
				HasValue: true,
			}
		case 1:
			child = &xmldb.Node{
				Label:    diffLabels[rng.Intn(len(diffLabels))],
				Value:    diffValues[rng.Intn(len(diffValues))],
				HasValue: true,
			}
			frontier = append(frontier, child) // values on interior nodes too
		default:
			child = &xmldb.Node{Label: diffLabels[rng.Intn(len(diffLabels))]}
			frontier = append(frontier, child)
		}
		parent.AddChild(child)
		budget--
	}
	return &xmldb.Document{Root: root}
}

// genQueryFor builds a random twig query. Most of the time it is derived
// from a real node of doc — trunk labels from the node's ancestor path,
// randomly generalised to // (sometimes eliding the step's label
// altogether), predicates sampled from the node's actual subtree and value
// — so a substantial fraction of trials exercise non-empty results; the
// rest are fully random, keeping the no-match paths honest too.
func genQueryFor(rng *rand.Rand, doc *xmldb.Document) string {
	if rng.Intn(10) < 7 {
		if q := genQueryFromDoc(rng, doc); q != "" {
			return q
		}
	}
	return genQuery(rng)
}

func genQueryFromDoc(rng *rand.Rand, doc *xmldb.Document) string {
	// Pick a random node, uniformly-ish, by reservoir sampling the tree,
	// keeping its ancestor chain, root first.
	var chain, path []*xmldb.Node
	count := 0
	var walk func(n *xmldb.Node)
	walk = func(n *xmldb.Node) {
		path = append(path, n)
		count++
		if rng.Intn(count) == 0 {
			chain = append(chain[:0], path...)
		}
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:len(path)-1]
	}
	walk(doc.Root)
	if len(chain) == 0 {
		return ""
	}
	// Decide which chain nodes to emit: elided nodes are absorbed by
	// forcing a descendant axis on the next emitted step. The picked node
	// itself is always emitted.
	type qstep struct {
		desc bool
		n    *xmldb.Node
	}
	var steps []qstep
	pendingDesc := false
	for i, n := range chain {
		last := i == len(chain)-1
		if !last && rng.Intn(5) == 0 {
			pendingDesc = true
			continue
		}
		steps = append(steps, qstep{desc: pendingDesc || rng.Intn(5) == 0, n: n})
		pendingDesc = false
	}
	q := ""
	for i, s := range steps {
		if s.desc {
			q += "//"
		} else {
			q += "/"
		}
		q += s.n.Label
		last := i == len(steps)-1
		// Predicates from the real subtree: an existing child label,
		// optionally with its real value (sometimes a wrong one).
		if len(s.n.Children) > 0 && rng.Intn(3) == 0 {
			c := s.n.Children[rng.Intn(len(s.n.Children))]
			p := c.Label
			if c.HasValue && rng.Intn(2) == 0 {
				v := c.Value
				if rng.Intn(5) == 0 {
					v = diffValues[rng.Intn(len(diffValues))]
				}
				p += fmt.Sprintf(" = '%s'", v)
			}
			q += "[" + p + "]"
		}
		if last && s.n.HasValue && rng.Intn(3) == 0 {
			q += fmt.Sprintf("[. = '%s']", s.n.Value)
		}
	}
	return q
}

// genQuery builds a fully random twig query string: a trunk of 1–4 steps
// with up to two predicates hanging off random trunk nodes.
func genQuery(rng *rand.Rand) string {
	axis := func() string {
		if rng.Intn(3) == 0 {
			return "//"
		}
		return "/"
	}
	label := func() string { return diffLabels[rng.Intn(len(diffLabels))] }
	leaf := func() string {
		if rng.Intn(4) == 0 {
			return diffAttrs[rng.Intn(len(diffAttrs))]
		}
		return label()
	}
	value := func() string { return diffValues[rng.Intn(len(diffValues))] }

	// A relative predicate path of 1–2 steps, optionally valued.
	pred := func() string {
		s := ""
		if rng.Intn(4) == 0 {
			s = "//"
		}
		if rng.Intn(3) == 0 {
			s += label() + axis()
		}
		s += leaf()
		switch rng.Intn(3) {
		case 0:
			s += fmt.Sprintf(" = '%s'", value())
		}
		return s
	}

	q := ""
	steps := 1 + rng.Intn(4)
	for i := 0; i < steps; i++ {
		q += axis()
		if i == steps-1 && rng.Intn(5) == 0 {
			q += leaf() // allow an attribute as the output node
		} else {
			q += label()
		}
		for p := rng.Intn(3); p > 0; p-- {
			q += "[" + pred() + "]"
		}
		if rng.Intn(8) == 0 {
			q += fmt.Sprintf("[. = '%s']", value())
		}
	}
	return q
}

// diffMismatch describes one strategy disagreeing with the oracle.
type diffMismatch struct {
	strat  plan.Strategy
	auto   bool // cost-based planner chose the strategy
	oracle bool // the engine's Oracle read
	post   bool // after writes through the copy-on-write path
	got    []int64
	err    error
}

// runDifferential builds the full index family over doc and compares every
// strategy (all strategies concurrently) against the naive oracle. Then it writes through the copy-on-write path
// (writeSome) and compares the maintained strategies, Auto and the
// engine's Oracle read against naive matching over an independently
// rebuilt copy of the written store. It returns the observed mismatches.
func runDifferential(doc *xmldb.Document, pat *xpath.Pattern) []diffMismatch {
	db := New(Config{BufferPoolBytes: 4 << 20})
	db.AddDocument(doc)
	if err := db.BuildAll(); err != nil {
		return []diffMismatch{{err: fmt.Errorf("BuildAll: %w", err)}}
	}
	// The containment index too, so the auto-planner's candidate set spans
	// the full family, structural-join extension included.
	if err := db.Build(index.KindContainment); err != nil {
		return []diffMismatch{{err: fmt.Errorf("Build(Containment): %w", err)}}
	}
	var runs []diffMismatch
	for _, s := range diffStrategies {
		runs = append(runs, diffMismatch{strat: s})
	}
	// The ninth contender: whatever the cost-based planner picks must agree
	// with the oracle too.
	runs = append(runs, diffMismatch{auto: true})
	mm := contend(db, pat, naive.Match(db.Store(), pat), runs)

	if err := writeSome(db); err != nil {
		return append(mm, diffMismatch{post: true, err: err})
	}
	runs = runs[:0]
	for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
		runs = append(runs, diffMismatch{strat: s, post: true})
	}
	runs = append(runs, diffMismatch{auto: true, post: true}, diffMismatch{oracle: true, post: true})
	return append(mm, contend(db, pat, naive.Match(rebuiltCopy(db.Store()), pat), runs)...)
}

// contend runs every contender concurrently against db and returns those
// that disagree with want.
func contend(db *DB, pat *xpath.Pattern, want []int64, runs []diffMismatch) []diffMismatch {
	out := make([]diffMismatch, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r diffMismatch) {
			defer wg.Done()
			opts := ReadOpts{Strategy: r.strat}
			switch {
			case r.auto:
				opts.Planner = Auto
			case r.oracle:
				opts.Planner = Oracle
			}
			res, err := db.Read(pat, opts)
			if err == nil && equalIDs(res.IDs, want) {
				return
			}
			if r.auto {
				r.strat = res.Strategy
			}
			r.got, r.err = res.IDs, err
			if err == nil && r.got == nil {
				r.got = []int64{} // distinguish "empty" from "no mismatch"
			}
			out[i] = r
		}(i, r)
	}
	wg.Wait()
	var mm []diffMismatch
	for _, m := range out {
		if m.err != nil || m.got != nil {
			mm = append(mm, m)
		}
	}
	return mm
}

// writeSome applies a fixed, document-determined sequence of writes: an
// insert under some node, one under the subtree just inserted, a delete of
// some non-root node and a new document under the virtual root.
func writeSome(db *DB) error {
	var ids []int64
	db.Store().Walk(func(n *xmldb.Node) bool { ids = append(ids, n.ID); return true })
	rng := rand.New(rand.NewSource(int64(len(ids))))
	sub := func() *xmldb.Node {
		return xmldb.Elem("b", xmldb.Attr("x", "v0"), xmldb.Text("c", "v1"), xmldb.Elem("a", xmldb.Text("d", "v2")))
	}
	first := sub()
	if err := db.InsertSubtree(ids[rng.Intn(len(ids))], first); err != nil {
		return err
	}
	if err := db.InsertSubtree(first.Children[2].ID, sub()); err != nil {
		return err
	}
	if len(ids) > 1 {
		if err := db.DeleteSubtree(ids[1+rng.Intn(len(ids)-1)]); err != nil {
			return err
		}
	}
	return db.InsertSubtree(0, sub())
}

// rebuiltCopy deep-copies every document of store, ids included, into a
// fresh store: nothing in it is shared with any version of the original.
func rebuiltCopy(store *xmldb.Store) *xmldb.Store {
	var cp func(n *xmldb.Node) *xmldb.Node
	cp = func(n *xmldb.Node) *xmldb.Node {
		c := &xmldb.Node{ID: n.ID, Label: n.Label, Value: n.Value, HasValue: n.HasValue}
		for _, ch := range n.Children {
			c.AddChild(cp(ch))
		}
		return c
	}
	out := xmldb.NewStore()
	for _, d := range store.Docs {
		if err := out.RestoreDocument(&xmldb.Document{Root: cp(d.Root)}); err != nil {
			panic(err)
		}
	}
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shrinkDoc greedily removes subtrees while the failure persists, returning
// a (locally) minimal failing document.
func shrinkDoc(doc *xmldb.Document, pat *xpath.Pattern) *xmldb.Document {
	fails := func(d *xmldb.Document) bool {
		return len(runDifferential(cloneDoc(d), pat)) > 0
	}
	cur := doc
	for pass := 0; pass < 8; pass++ {
		shrunk := false
		// Enumerate candidate removals: every non-root node, shallowest
		// (= biggest subtree) first, so whole subtrees vanish early.
		var nodes []*xmldb.Node
		var walk func(n *xmldb.Node)
		walk = func(n *xmldb.Node) {
			for _, c := range n.Children {
				nodes = append(nodes, c)
				walk(c)
			}
		}
		walk(cur.Root)
		for _, victim := range nodes {
			cand := cloneDocWithout(cur, victim)
			if cand == nil {
				continue
			}
			if fails(cand) {
				cur = cand
				shrunk = true
				break // node list is stale; rebuild it
			}
		}
		if !shrunk {
			return cur
		}
	}
	return cur
}

// cloneDoc deep-copies a document with fresh, unnumbered nodes (AddDocument
// assigns ids, so a document tree is single-use).
func cloneDoc(doc *xmldb.Document) *xmldb.Document {
	return &xmldb.Document{Root: cloneNodeWithout(doc.Root, nil)}
}

// cloneDocWithout deep-copies doc minus the subtree at victim; nil if the
// victim is the root.
func cloneDocWithout(doc *xmldb.Document, victim *xmldb.Node) *xmldb.Document {
	if doc.Root == victim {
		return nil
	}
	return &xmldb.Document{Root: cloneNodeWithout(doc.Root, victim)}
}

func cloneNodeWithout(n, victim *xmldb.Node) *xmldb.Node {
	c := &xmldb.Node{Label: n.Label, Value: n.Value, HasValue: n.HasValue}
	for _, ch := range n.Children {
		if ch == victim {
			continue
		}
		c.AddChild(cloneNodeWithout(ch, victim))
	}
	return c
}

// TestDifferentialStrategies is the randomized cross-strategy harness. Every
// strategy runs concurrently against one engine, so `go test -race`
// exercises the shared read path on every trial.
func TestDifferentialStrategies(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for seed := int64(1); seed <= int64(trials); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			doc := genDoc(rng, 40)
			queries := make([]string, 4)
			for i := range queries {
				queries[i] = genQueryFor(rng, doc)
			}
			for _, q := range queries {
				pat, err := xpath.Parse(q)
				if err != nil {
					t.Fatalf("generated query %q does not parse: %v", q, err)
				}
				mm := runDifferential(cloneDoc(doc), pat)
				if len(mm) == 0 {
					continue
				}
				minDoc := shrinkDoc(doc, pat)
				mm = runDifferential(cloneDoc(minDoc), pat)
				report := fmt.Sprintf("query %s disagrees on shrunk document:\n%s", q, xmldb.Dump(minDoc.Root))
				db := New(Config{BufferPoolBytes: 4 << 20})
				db.AddDocument(cloneDoc(minDoc))
				want := naive.Match(db.Store(), pat)
				report += fmt.Sprintf("oracle: %v\n", want)
				for _, m := range mm {
					exec := ""
					if m.post {
						exec = " after writes"
					}
					name := m.strat.String()
					switch {
					case m.oracle:
						name = "oracle"
					case m.auto && m.err != nil:
						name = "auto" // planning failed; no strategy was chosen
					case m.auto:
						name = "auto→" + name
					}
					if m.err != nil {
						report += fmt.Sprintf("  %v%s: error %v\n", name, exec, m.err)
					} else {
						report += fmt.Sprintf("  %v%s: got %v\n", name, exec, m.got)
					}
				}
				t.Fatal(report)
			}
		})
	}
}

// TestDifferentialFixedCorpus pins a handful of regression queries that
// exercise every axis/predicate feature on a fixed document, as a fast
// deterministic companion to the randomized harness.
func TestDifferentialFixedCorpus(t *testing.T) {
	doc := func() *xmldb.Document {
		return &xmldb.Document{Root: xmldb.Elem("a",
			xmldb.Elem("b",
				xmldb.Attr("x", "v0"),
				xmldb.Text("c", "v1"),
				xmldb.Elem("a",
					xmldb.Text("c", "v0"),
					xmldb.Elem("b", xmldb.Text("d", "v2")),
				),
			),
			xmldb.Elem("d",
				xmldb.Text("b", "v1"),
				xmldb.Elem("b", xmldb.Attr("y", "v1")),
			),
			xmldb.Text("c", "v1"),
		)}
	}
	queries := []string{
		`/a/b/c`,
		`//c`,
		`//b[@x = 'v0']`,
		`/a//b[d = 'v2']`,
		`//a[c = 'v0']/b`,
		`/a[c = 'v1']//b[@y = 'v1']`,
		`//b[c]`,
		`/a/d/b[. = 'v1']`,
		`//a[//c = 'v0']`,
		`/a[b/c = 'v1'][d]//d`,
	}
	for _, q := range queries {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if mm := runDifferential(doc(), pat); len(mm) != 0 {
			t.Errorf("%s: %d strategy mismatches: %+v", q, len(mm), mm)
		}
	}
}

// TestDifferentialAcrossGOMAXPROCS reruns the differential comparison —
// every strategy, all contending concurrently against one engine, against
// the naive oracle — pinned at GOMAXPROCS 1 and 8, so the shared read path
// is exercised both fully serialised and genuinely preempted. The corpus
// targets executor edge cases: empty results (no group, no block), a
// single-branch plan (no joins at all), duplicate output ids from multiple
// assignments (dedup across blocks), and recursive // matches.
func TestDifferentialAcrossGOMAXPROCS(t *testing.T) {
	doc := func() *xmldb.Document {
		return &xmldb.Document{Root: xmldb.Elem("a",
			xmldb.Elem("b",
				xmldb.Text("c", "v1"),
				xmldb.Elem("a",
					xmldb.Text("c", "v0"),
					xmldb.Elem("b", xmldb.Text("c", "v1")),
				),
			),
			xmldb.Elem("b", xmldb.Text("c", "v1")),
			xmldb.Text("c", "v2"),
		)}
	}
	queries := []string{
		// Empty result: the label occurs but nothing matches the value.
		`//b[c = 'v9']`,
		// Empty result: deep trunk that matches nothing structurally.
		`/a/a/a/a/b`,
		// Single branch, no joins.
		`//c`,
		// Duplicate-prone: //a//b binds the same b under several a's.
		`//a//b`,
		`//a//b[c = 'v1']`,
		// Multi-branch with shared prefix.
		`//a[c = 'v0']/b[c = 'v1']`,
	}
	for _, procs := range []int{1, 8} {
		procs := procs
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, q := range queries {
				pat, err := xpath.Parse(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if mm := runDifferential(doc(), pat); len(mm) != 0 {
					t.Errorf("GOMAXPROCS=%d %s: %d strategy mismatches: %+v",
						procs, q, len(mm), mm)
				}
			}
		})
	}
}
