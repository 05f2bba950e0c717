package engine

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/pathdict"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// recursiveXML repeats labels along one root path, so rooted paths like
// r/a/a/b exist beside r/a/b.
const recursiveXML = `<r><a><b>v0</b><a><b>v1</b><a><c>v0</c><b>v1</b></a></a></a><a><b>v1</b></a></r>`

// docNodes returns the ids of the nodes in the subtree at root (root
// included) and of those whose subtree has at most maxVictim nodes (root
// excluded): insert parents and delete victims.
func docNodes(root *xmldb.Node, maxVictim int) (all, victims []int64) {
	var rec func(n *xmldb.Node) int
	rec = func(n *xmldb.Node) int {
		all = append(all, n.ID)
		size := 1
		for _, c := range n.Children {
			size += rec(c)
		}
		if n != root && size <= maxVictim {
			victims = append(victims, n.ID)
		}
		return size
	}
	rec(root)
	return all, victims
}

// statsPatterns compiles the linear patterns the statistics are checked
// on: every branch of the paper's workload, some recursive branches, and
// //label for every interned label.
func statsPatterns(dict *pathdict.Dict) [][]pathdict.PStep {
	var out [][]pathdict.PStep
	add := func(descs []bool, labels []string) {
		if pat, ok := pathdict.CompileSteps(dict, descs, labels); ok {
			out = append(out, pat)
		}
	}
	texts := []string{`//a//b`, `/r/a//a/b`, `//a/b`, `//a/a/b`, `/r//c`}
	for _, q := range workload.All() {
		texts = append(texts, q.XPath)
	}
	for _, q := range texts {
		for _, br := range xpath.MustParse(q).Branches() {
			var descs []bool
			var labels []string
			for _, st := range br.Steps {
				descs = append(descs, st.Axis == xpath.Descendant)
				labels = append(labels, st.Label)
			}
			add(descs, labels)
		}
	}
	for sym := 1; sym <= dict.Size(); sym++ {
		add([]bool{true}, []string{dict.Label(pathdict.Sym(sym))})
	}
	return out
}

// requireStatsEqual fails unless got — a snapshot's statistics, carried
// forward by delta — equals want, a fresh Collect of the same store: the
// rooted-path set and its size, every path and value count, and every
// estimate over pats.
func requireStatsEqual(t *testing.T, tag string, dict *pathdict.Dict, got, want *stats.Stats, pats [][]pathdict.PStep) {
	t.Helper()
	// Counts keyed by raw path bytes; by label names only to report.
	raw := func(p pathdict.Path) string { return string(pathdict.AppendPath(nil, p)) }
	named := func(p pathdict.Path) string { return p.String(dict) }
	paths := func(s *stats.Stats, key func(pathdict.Path) string) map[string]int64 {
		m := map[string]int64{}
		s.RootedPaths().All(func(id pathdict.PathID, p pathdict.Path) { m[key(p)] = s.PathCount(id) })
		return m
	}
	values := func(s *stats.Stats, key func(pathdict.Path) string) map[string]int64 {
		m := map[string]int64{}
		s.Values(func(p pathdict.Path, v string, n int64) { m[key(p)+"="+v] = n })
		return m
	}
	for _, counts := range []func(*stats.Stats, func(pathdict.Path) string) map[string]int64{paths, values} {
		if maps.Equal(counts(got, raw), counts(want, raw)) {
			continue
		}
		g, w := counts(got, named), counts(want, named)
		for _, m := range []map[string]int64{g, w} {
			for k := range m {
				if g[k] != w[k] {
					t.Fatalf("%s: %s counted %d, Collect says %d", tag, k, g[k], w[k])
				}
			}
		}
	}
	if g, w := got.RootedPaths().Len(), want.RootedPaths().Len(); g != w {
		t.Fatalf("%s: RootedPaths().Len() = %d, Collect says %d", tag, g, w)
	}
	// Counts read through the accessors, named by label on failure.
	want.Values(func(p pathdict.Path, v string, n int64) {
		id, ok := got.RootedPaths().Lookup(p)
		if !ok || got.PathCount(id) == 0 || got.ValueCount(id, v) != n {
			t.Fatalf("%s: ValueCount(%s, %q) = %d, want %d", tag, p.String(dict), v, got.ValueCount(id, v), n)
		}
	})
	for _, pat := range pats {
		if g, w := got.EstimateBranch(pat, false, ""), want.EstimateBranch(pat, false, ""); g != w {
			t.Fatalf("%s: EstimateBranch(%v) = %d, want %d", tag, pat, g, w)
		}
		for _, v := range []string{"v1", datagen.LocationCommon} {
			if g, w := got.EstimateBranch(pat, true, v), want.EstimateBranch(pat, true, v); g != w {
				t.Fatalf("%s: EstimateBranch(%v = %q) = %d, want %d", tag, pat, v, g, w)
			}
		}
		if g, w := got.CountMatchingRootedPaths(pat), want.CountMatchingRootedPaths(pat); g != w {
			t.Fatalf("%s: CountMatchingRootedPaths(%v) = %d, want %d", tag, pat, g, w)
		}
	}
}

// TestIncrementalStatsEqualCollect: statistics carried forward by delta
// through inserts, deletes (down to the last instance of a path and of a
// value), rollbacks, conflicts and commit replays equal a fresh Collect
// after every commit.
func TestIncrementalStatsEqualCollect(t *testing.T) {
	db := New(Config{BufferPoolBytes: 16 << 20})
	if err := db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 3, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	rec, err := xmldb.ParseString(recursiveXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	docA, docB := db.Store().Docs[0].Root.ID, rec.Root.ID
	var pats [][]pathdict.PStep
	labels := 0
	check := func(tag string) {
		t.Helper()
		if n := db.dict.Size(); n != labels {
			pats, labels = statsPatterns(db.dict), n
		}
		s := db.CurrentSnapshot()
		requireStatsEqual(t, tag, db.dict, s.Env().Stats, stats.Collect(s.Store(), db.dict), pats)
	}
	check("after build")

	rng := rand.New(rand.NewSource(11))
	nodesOf := func(doc int64) (all, victims []int64) {
		return docNodes(db.Store().NodeByID(doc), 30)
	}
	pick := func(ids []int64) int64 { return ids[rng.Intn(len(ids))] }
	subtree := func() *xmldb.Node { return genDoc(rng, 8).Root }
	insertInto := func(tx *Tx, doc int64) error {
		all, _ := nodesOf(doc)
		return tx.Insert(pick(all), subtree())
	}
	for i := 0; i < 500; i++ {
		tag := fmt.Sprintf("op %d", i)
		doc := []int64{docA, docB}[rng.Intn(2)]
		switch r := rng.Intn(10); {
		case r < 4:
			all, _ := nodesOf(doc)
			if err := db.InsertSubtree(pick(all), subtree()); err != nil {
				t.Fatalf("%s insert: %v", tag, err)
			}
		case r < 6:
			_, victims := nodesOf(doc)
			if len(victims) == 0 {
				continue
			}
			if err := db.DeleteSubtree(pick(victims)); err != nil {
				t.Fatalf("%s delete: %v", tag, err)
			}
		case r == 6:
			tx := db.Begin()
			if err := insertInto(tx, doc); err != nil {
				t.Fatal(err)
			}
			if _, victims := nodesOf(doc); len(victims) > 0 {
				if err := tx.Delete(pick(victims)); err != nil {
					t.Fatal(err)
				}
			}
			tx.Rollback()
			tag += " rollback"
		case r == 7:
			// The first attempt conflicts (a commit to the same document
			// lands first), the retry is replayed (one to the other lands).
			other := map[int64]int64{docA: docB, docB: docA}[doc]
			attempt := 0
			err := db.Update(func(tx *Tx) error {
				if err := insertInto(tx, doc); err != nil {
					return err
				}
				target := doc
				if attempt++; attempt > 1 {
					target = other
				}
				all, _ := nodesOf(target)
				if err := db.InsertSubtree(pick(all), subtree()); err != nil {
					return err
				}
				check(tag + " interleaved commit")
				return nil
			}, 2)
			if err != nil || attempt != 2 {
				t.Fatalf("%s update: %v after %d attempts", tag, err, attempt)
			}
			tag += " update"
		case r == 8:
			tx := db.Begin()
			if err := insertInto(tx, doc); err != nil {
				t.Fatal(err)
			}
			all, _ := nodesOf(doc)
			if err := db.InsertSubtree(pick(all), subtree()); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrConflict) {
				t.Fatalf("%s: overlapping commit = %v, want ErrConflict", tag, err)
			}
			tag += " conflict"
		default:
			// The last instance of a path and of a (path, value) pair.
			all, _ := nodesOf(doc)
			label := fmt.Sprintf("u%d", i)
			sub := xmldb.Elem(label, xmldb.Text("w", fmt.Sprintf("val%d", i)))
			if err := db.InsertSubtree(pick(all), sub); err != nil {
				t.Fatal(err)
			}
			check(tag + " unique insert")
			if err := db.DeleteSubtree(sub.ID); err != nil {
				t.Fatal(err)
			}
			pat, _ := pathdict.CompileSteps(db.dict, []bool{true}, []string{label})
			if n := db.CurrentSnapshot().Env().Stats.CountMatchingRootedPaths(pat); n != 0 {
				t.Fatalf("%s: deleted path //%s still counted (%d paths)", tag, label, n)
			}
			tag += " unique delete"
		}
		check(tag)
	}
}

// listing is the benchmark's commit-durable subtree: 7 element and
// attribute nodes.
func listing(n int) *xmldb.Node {
	doc, err := xmldb.ParseString(fmt.Sprintf(`<listing id="L%d"><seller>person%d</seller><price>%d.50</price>`+
		`<currency>USD</currency><note>lot %d</note><date>01/%02d/2004</date></listing>`, n, n%2000, n%500, n, 1+n%28))
	if err != nil {
		panic(err)
	}
	return doc.Root
}

// xmarkItems builds an in-memory XMark database with ROOTPATHS and
// DATAPATHS and returns it with its item ids.
func xmarkItems(t *testing.T, itemsPerRegion int, cfg Config) (*DB, []int64) {
	t.Helper()
	db := New(cfg)
	if err := db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: itemsPerRegion})); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	items, err := pinnedIDs(db, xpath.MustParse(`//item`), plan.RootPathsPlan)
	if err != nil || len(items) == 0 {
		t.Fatalf("items: %v (%d)", err, len(items))
	}
	return db, items
}

// TestCommitAllocFollowsChange: the bytes an InsertSubtree of one listing
// allocates follow the change, not the database — copying the store's id
// index, the touched document or the statistics would grow them with the
// database (≈8× between these two sizes).
func TestCommitAllocFollowsChange(t *testing.T) {
	perInsert := func(itemsPerRegion int) float64 {
		db, items := xmarkItems(t, itemsPerRegion, Config{BufferPoolBytes: 64 << 20})
		const warm, n = 10, 60
		subs := make([]*xmldb.Node, warm+n)
		for i := range subs {
			subs[i] = listing(i)
		}
		for i := 0; i < warm; i++ {
			if err := db.InsertSubtree(items[i*7%len(items)], subs[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+n; i++ {
			if err := db.InsertSubtree(items[i*7%len(items)], subs[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, big := perInsert(10), perInsert(80)
	t.Logf("bytes allocated per insert: %.0f at 10 items/region, %.0f at 80", small, big)
	if big > 1.5*small {
		t.Fatalf("an insert allocates %.0f bytes at 80 items/region, %.2f× the %.0f at 10", big, big/small, small)
	}
}

// TestRetainedVersionsSurviveWrites: spine copies never reach back into an
// older version. With 50 versions retained, 100 writes to one document
// leave every retained version answering exactly what the oracle answered
// when it was current, through every maintained index and Auto, and leave
// the pre-write store's document byte-for-byte unchanged.
func TestRetainedVersionsSurviveWrites(t *testing.T) {
	db, items := xmarkItems(t, 4, Config{BufferPoolBytes: 16 << 20, RetainSnapshots: 50})
	pre := db.Store()
	preDump := xmldb.Dump(pre.Docs[0].Root)
	queries := []*xpath.Pattern{
		xpath.MustParse(`//listing/seller`),
		xpath.MustParse(`//item[listing/currency = 'USD']/name`),
		xpath.MustParse(`/site/regions//item[quantity = '` + datagen.QuantityCommon + `']`),
		xpath.MustParse(`//listing[note]`),
	}
	want := map[uint64][][]int64{}
	record := func() {
		s := db.CurrentSnapshot()
		for _, q := range queries {
			want[s.Seq()] = append(want[s.Seq()], naive.Match(s.Store(), q))
		}
	}
	rng := rand.New(rand.NewSource(3))
	var live []int64
	for i := 0; i < 100; i++ {
		var err error
		switch {
		case len(live) > 0 && rng.Intn(3) == 0:
			k := rng.Intn(len(live))
			err = db.DeleteSubtree(live[k])
			live = append(live[:k], live[k+1:]...)
		case len(live) > 0 && rng.Intn(3) == 0:
			// Deeper: under a listing attached a few versions ago.
			err = db.InsertSubtree(live[rng.Intn(len(live))], xmldb.Text("note", fmt.Sprintf("n%d", i)))
		default:
			sub := listing(i)
			if err = db.InsertSubtree(items[rng.Intn(len(items))], sub); err == nil {
				live = append(live, sub.ID)
			}
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		record()
	}
	cur := db.CurrentSeq()
	for seq := cur - 50; seq <= cur; seq++ {
		for qi, q := range queries {
			for _, opts := range []ReadOpts{
				{Planner: Oracle},
				{Planner: Auto},
				{Strategy: plan.RootPathsPlan},
				{Strategy: plan.DataPathsPlan},
			} {
				res, err := db.ReadAsOf(seq, q, opts)
				if err != nil {
					t.Fatalf("seq %d %s %+v: %v", seq, q, opts, err)
				}
				if !equalIDs(res.IDs, want[seq][qi]) {
					t.Fatalf("seq %d %s %+v: %v, oracle when current %v", seq, q, opts, res.IDs, want[seq][qi])
				}
			}
		}
	}
	if got := xmldb.Dump(pre.Docs[0].Root); got != preDump {
		t.Fatal("writes changed the pre-write version's document")
	}
}
