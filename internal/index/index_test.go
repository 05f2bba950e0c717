package index

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// bookStore is the paper's running example with ids padded to match
// Figure 1(b): book=1, title=2, allauthors=5, author=6, fn=7, ln=10,
// author=21(-ish)...
const bookXML = `
<book>
 <title>XML</title>
 <pad1/><pad2/>
 <allauthors>
  <author><fn>jane</fn><pad3/><pad4/><ln>poe</ln></author>
  <author><fn>john</fn><ln>doe</ln></author>
  <author><fn>jane</fn><ln>doe</ln></author>
 </allauthors>
 <year>2000</year>
 <chapter>
  <title>XML</title>
  <section><head>Origins</head></section>
 </chapter>
</book>`

type fixture struct {
	store *xmldb.Store
	dict  *pathdict.Dict
	pool  *storage.Pool
	ptab  *pathdict.PathTable
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	doc, err := xmldb.ParseString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	s := xmldb.NewStore()
	s.AddDocument(doc)
	return &fixture{
		store: s,
		dict:  pathdict.NewDict(),
		pool:  storage.NewPool(storage.NewDisk(), 16<<20),
		ptab:  pathdict.NewPathTable(),
	}
}

// site is the fixture as a build site over pool.
func (f *fixture) site(pool *storage.Pool, opts PathsOptions) Site {
	return Site{Pool: pool, Store: f.store, Dict: f.dict, Ptab: f.ptab, Opts: opts}
}

func (f *fixture) syms(t testing.TB, labels ...string) pathdict.Path {
	t.Helper()
	p := make(pathdict.Path, len(labels))
	for i, l := range labels {
		s, ok := f.dict.Sym(l)
		if !ok {
			t.Fatalf("label %q not interned", l)
		}
		p[i] = s
	}
	return p
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRootPathsProbeSuffix(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}

	// Paper Section 3.2: //author[fn='jane'] is the lookup ('jane', FA*).
	var authorIDs []int64
	rows, err := rp.Probe(new(Scratch), 0, true, "jane", f.syms(t, "author", "fn"), func(fwd pathdict.Path, ids []int64) error {
		authorIDs = append(authorIDs, ids[len(ids)-2]) // penultimate id
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2 (two jane authors)", rows)
	}
	if len(authorIDs) != 2 || authorIDs[0] == authorIDs[1] {
		t.Fatalf("author ids = %v", authorIDs)
	}

	// (null, FA*): all author/fn paths regardless of value.
	rows, err = rp.Probe(new(Scratch), 0, false, "", f.syms(t, "author", "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("null-value rows = %d, want 3", rows)
	}

	// Suffix must not match interior positions: //title matches both
	// book/title and book/chapter/title.
	rows, err = rp.Probe(new(Scratch), 0, false, "", f.syms(t, "title"), func(pathdict.Path, []int64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("//title rows = %d, want 2", rows)
	}

	// Absent value.
	rows, err = rp.Probe(new(Scratch), 0, true, "nosuch", f.syms(t, "author", "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 0 {
		t.Fatalf("absent value rows = %d, err %v", rows, err)
	}
}

func TestRootPathsFullIdList(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	_, err = rp.Probe(new(Scratch), 0, true, "poe", f.syms(t, "ln"), func(fwd pathdict.Path, ids []int64) error {
		got = append(got, append([]int64(nil), ids...))
		if fwd.String(f.dict) != "book/allauthors/author/ln" {
			t.Fatalf("fwd path = %s", fwd.String(f.dict))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: LAUB poe -> [1,5,6,10].
	if len(got) != 1 || fmt.Sprint(got[0]) != "[1 5 6 10]" {
		t.Fatalf("IdList = %v, want [[1 5 6 10]]", got)
	}
}

func TestDataPathsBoundProbe(t *testing.T) {
	f := newFixture(t)
	dp, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	// FreeIndex via virtual root: /book.
	var bookID int64 = -1
	rows, err := dp.Probe(new(Scratch), 0, false, "", f.syms(t, "book"), func(fwd pathdict.Path, ids []int64) error {
		bookID = ids[len(ids)-1]
		return nil
	})
	if err != nil || rows != 1 || bookID != 1 {
		t.Fatalf("FreeIndex /book: rows=%d book=%d err=%v", rows, bookID, err)
	}

	// BoundIndex: //author[fn='jane'] rooted at book id 1.
	var authors []int64
	rows, err = dp.Probe(new(Scratch), 1, true, "jane", f.syms(t, "author", "fn"), func(fwd pathdict.Path, ids []int64) error {
		// Path is headed at book: book/allauthors/author/fn, IdList
		// excludes the head, so author is ids[len-2].
		authors = append(authors, ids[len(ids)-2])
		return nil
	})
	if err != nil || rows != 2 {
		t.Fatalf("BoundIndex rows=%d err=%v", rows, err)
	}
	if len(authors) != 2 {
		t.Fatalf("authors = %v", authors)
	}

	// BoundIndex rooted at a node with no such descendant path.
	rows, err = dp.Probe(new(Scratch), 2, true, "jane", f.syms(t, "author", "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 0 {
		t.Fatalf("title-rooted probe rows=%d err=%v", rows, err)
	}
}

func TestDataPathsMatchesFigure5Row(t *testing.T) {
	f := newFixture(t)
	dp, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5: (5, FAU, jane, [6,7]) — head allauthors(5), path
	// allauthors/author/fn.
	var got []int64
	var fwdStr string
	rows, err := dp.Probe(new(Scratch), 5, true, "jane", f.syms(t, "fn"), func(fwd pathdict.Path, ids []int64) error {
		if got == nil {
			got = append([]int64(nil), ids...)
			fwdStr = fwd.String(f.dict)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 { // jane under author 6 and under the third author
		t.Fatalf("rows = %d, want 2", rows)
	}
	if fwdStr != "allauthors/author/fn" || fmt.Sprint(got) != "[6 7]" {
		t.Fatalf("row = %s %v, want allauthors/author/fn [6 7]", fwdStr, got)
	}
}

func TestDataPathsPruneHeads(t *testing.T) {
	f := newFixture(t)
	full, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildPaths(true, f.site(f.pool, PathsOptions{
		KeepHead: func(id int64) bool { return id == 1 }, // only book is a branch point
	}))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Space().Entries >= full.Space().Entries {
		t.Fatalf("pruning did not drop entries: %d vs %d", pruned.Space().Entries, full.Space().Entries)
	}
	// FreeIndex (head 0) must survive pruning.
	rows, err := pruned.Probe(new(Scratch), 0, false, "", f.syms(t, "book"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 1 {
		t.Fatalf("FreeIndex after pruning: rows=%d err=%v", rows, err)
	}
	// Bound probes at the kept head survive.
	rows, err = pruned.Probe(new(Scratch), 1, true, "jane", f.syms(t, "author", "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 2 {
		t.Fatalf("bound probe at kept head: rows=%d err=%v", rows, err)
	}
	// Bound probes at pruned heads return nothing (lost functionality).
	rows, err = pruned.Probe(new(Scratch), 5, true, "jane", f.syms(t, "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 0 {
		t.Fatalf("bound probe at pruned head: rows=%d err=%v", rows, err)
	}
}

func TestPathIDCompression(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{PathIDKeys: true}))
	if err != nil {
		t.Fatal(err)
	}
	// Exact path probes still work.
	path := f.syms(t, "book", "allauthors", "author", "fn")
	var count int
	rows, err := rp.ProbePathID(new(Scratch), 0, true, "jane", path, func(_ pathdict.Path, ids []int64) error {
		count++
		if len(ids) != 4 {
			t.Fatalf("ids = %v", ids)
		}
		return nil
	})
	if err != nil || rows != 2 || count != 2 {
		t.Fatalf("ProbePathID rows=%d err=%v", rows, err)
	}
	// Suffix probes are refused: the compression is lossy for //.
	if _, err := rp.Probe(new(Scratch), 0, true, "jane", f.syms(t, "fn"), nil); err == nil {
		t.Fatalf("suffix probe on PathIDKeys build: want error")
	}
	// Unknown path: no rows, no error.
	rows, err = rp.ProbePathID(new(Scratch), 0, false, "", f.syms(t, "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 0 {
		t.Fatalf("unknown path rows=%d err=%v", rows, err)
	}
}

func TestRawVsDeltaSpace(t *testing.T) {
	f := newFixture(t)
	delta, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := BuildPaths(true, f.site(f.pool, PathsOptions{RawIDs: true}))
	if err != nil {
		t.Fatal(err)
	}
	if delta.Space().Pages > raw.Space().Pages {
		t.Fatalf("delta (%d pages) larger than raw (%d pages)", delta.Space().Pages, raw.Space().Pages)
	}
}

func TestEdgeIndices(t *testing.T) {
	f := newFixture(t)
	e, err := BuildEdge(f.pool, f.store, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	// Value index: fn='jane' -> two fn nodes.
	var fns []int64
	rows, err := e.ValueProbe(new(Scratch), "fn", "jane", func(id int64) error {
		fns = append(fns, id)
		return nil
	})
	if err != nil || rows != 2 {
		t.Fatalf("ValueProbe rows=%d err=%v", rows, err)
	}
	// Forward: children of book (id 1) labeled title.
	var titles []int64
	_, err = e.Children(new(Scratch), 1, "title", func(id int64) error {
		titles = append(titles, id)
		return nil
	})
	if err != nil || len(titles) != 1 || titles[0] != 2 {
		t.Fatalf("Children(book, title) = %v, err %v", titles, err)
	}
	// Forward from the virtual root finds document roots.
	var roots []int64
	_, err = e.Children(new(Scratch), 0, "book", func(id int64) error {
		roots = append(roots, id)
		return nil
	})
	if err != nil || len(roots) != 1 || roots[0] != 1 {
		t.Fatalf("Children(vroot, book) = %v, err %v", roots, err)
	}
	// All children without a tag filter.
	var all []int64
	_, err = e.Children(new(Scratch), 1, "", func(id int64) error {
		all = append(all, id)
		return nil
	})
	if err != nil || len(all) != 6 { // title pad1 pad2 allauthors year chapter
		t.Fatalf("Children(book) = %v (%d), err %v", all, len(all), err)
	}
	// Backward: parent of title(2) is book(1).
	pid, plabel, ok, err := e.Parent(new(Scratch), 2)
	if err != nil || !ok || pid != 1 || plabel != "book" {
		t.Fatalf("Parent(2) = %d %q %v %v", pid, plabel, ok, err)
	}
	// Parent of the document root is the virtual root.
	pid, plabel, ok, err = e.Parent(new(Scratch), 1)
	if err != nil || !ok || pid != 0 || plabel != "" {
		t.Fatalf("Parent(1) = %d %q %v %v", pid, plabel, ok, err)
	}
	// Unknown node.
	_, _, ok, err = e.Parent(new(Scratch), 9999)
	if err != nil || ok {
		t.Fatalf("Parent(9999) ok=%v err=%v", ok, err)
	}
	// Unknown label.
	rows, err = e.ValueProbe(new(Scratch), "nolabel", "x", func(int64) error { return nil })
	if err != nil || rows != 0 {
		t.Fatalf("unknown label rows=%d err=%v", rows, err)
	}
}

func TestDataGuide(t *testing.T) {
	f := newFixture(t)
	dg, err := BuildDataGuide(f.pool, f.store, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	// Extent of book/allauthors/author = three author ids.
	var authors []int64
	rows, err := dg.Extent(new(Scratch), f.syms(t, "book", "allauthors", "author"), func(id int64) error {
		authors = append(authors, id)
		return nil
	})
	if err != nil || rows != 3 {
		t.Fatalf("Extent rows=%d err=%v", rows, err)
	}
	// A path must not match its extensions: extent of book/title is 1 id
	// even though book/chapter/title also exists.
	rows, err = dg.Extent(new(Scratch), f.syms(t, "book", "title"), func(int64) error { return nil })
	if err != nil || rows != 1 {
		t.Fatalf("Extent(book/title) rows=%d err=%v", rows, err)
	}
	// // expansion over the summary: //title matches two concrete paths.
	pat, ok := pathdict.CompileSteps(f.dict, []bool{true}, []string{"title"})
	if !ok {
		t.Fatal("compile")
	}
	if got := dg.MatchingPaths(pat); len(got) != 2 {
		t.Fatalf("MatchingPaths(//title) = %d paths, want 2", len(got))
	}
}

func TestDataGuideChunking(t *testing.T) {
	// An extent larger than one chunk must round-trip completely.
	s := xmldb.NewStore()
	root := xmldb.Elem("r")
	const n = dgChunk*3 + 17
	for i := 0; i < n; i++ {
		root.AddChild(xmldb.Elem("c"))
	}
	s.AddDocument(&xmldb.Document{Root: root})
	dict := pathdict.NewDict()
	pool := storage.NewPool(storage.NewDisk(), 16<<20)
	dg, err := BuildDataGuide(pool, s, dict)
	if err != nil {
		t.Fatal(err)
	}
	p := pathdict.Path{mustSym(t, dict, "r"), mustSym(t, dict, "c")}
	seen := map[int64]bool{}
	rows, err := dg.Extent(new(Scratch), p, func(id int64) error {
		seen[id] = true
		return nil
	})
	if err != nil || rows != n || len(seen) != n {
		t.Fatalf("chunked extent rows=%d distinct=%d err=%v", rows, len(seen), err)
	}
}

func mustSym(t testing.TB, d *pathdict.Dict, label string) pathdict.Sym {
	t.Helper()
	s, ok := d.Sym(label)
	if !ok {
		t.Fatalf("label %q not interned", label)
	}
	return s
}

func TestIndexFabric(t *testing.T) {
	f := newFixture(t)
	fab, err := BuildIndexFabric(f.pool, f.store, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	// Exact (path, value) lookup -> leaf ids.
	var ids []int64
	rows, err := fab.Probe(new(Scratch), f.syms(t, "book", "allauthors", "author", "fn"), true, "jane", func(id int64) error {
		ids = append(ids, id)
		return nil
	})
	if err != nil || rows != 2 {
		t.Fatalf("Probe rows=%d err=%v", rows, err)
	}
	// Existence probe on an interior path.
	rows, err = fab.Probe(new(Scratch), f.syms(t, "book", "allauthors"), false, "", func(int64) error { return nil })
	if err != nil || rows != 1 {
		t.Fatalf("existence probe rows=%d err=%v", rows, err)
	}
	// Path prefix must not leak into longer paths.
	rows, err = fab.Probe(new(Scratch), f.syms(t, "book", "title"), false, "", func(int64) error { return nil })
	if err != nil || rows != 1 {
		t.Fatalf("book/title probe rows=%d err=%v", rows, err)
	}
}

func TestASR(t *testing.T) {
	f := newFixture(t)
	a, err := BuildASR(f.pool, f.store, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTables() == 0 {
		t.Fatal("no ASR relations")
	}
	// Rooted probe: book/allauthors/author/fn with value jane.
	pat, ok := pathdict.CompileSteps(f.dict,
		[]bool{false, false, false, false},
		[]string{"book", "allauthors", "author", "fn"})
	if !ok {
		t.Fatal("compile")
	}
	paths := a.MatchingPaths(pat, true)
	if len(paths) != 1 {
		t.Fatalf("matching rooted paths = %d, want 1", len(paths))
	}
	var tuples [][]int64
	rows, err := a.ProbeValue(new(Scratch), paths[0], true, "jane", true, func(ids []int64) error {
		tuples = append(tuples, append([]int64(nil), ids...))
		return nil
	})
	if err != nil || rows != 2 {
		t.Fatalf("ProbeValue rows=%d err=%v", rows, err)
	}
	// Full uncompressed tuple: [book, allauthors, author, fn].
	if len(tuples[0]) != 4 || tuples[0][0] != 1 || tuples[0][1] != 5 {
		t.Fatalf("tuple = %v", tuples[0])
	}

	// Bound probe (INL): author-headed subpath author/fn at author 6.
	subPat, ok := pathdict.CompileSteps(f.dict, []bool{false, false}, []string{"author", "fn"})
	if !ok {
		t.Fatal("compile sub")
	}
	subPaths := a.MatchingPaths(subPat, false)
	if len(subPaths) != 1 {
		t.Fatalf("sub paths = %d, want 1", len(subPaths))
	}
	rows, err = a.ProbeBound(new(Scratch), subPaths[0], 6, true, "jane", func(ids []int64) error {
		if ids[0] != 6 {
			t.Fatalf("bound tuple = %v", ids)
		}
		return nil
	})
	if err != nil || rows != 1 {
		t.Fatalf("ProbeBound rows=%d err=%v", rows, err)
	}
	// Unknown relation id errors.
	if _, err := a.ProbeValue(new(Scratch), pathdict.PathID(99999), false, "", false, nil); err == nil {
		t.Fatalf("unknown relation: want error")
	}
}

func TestJoinIndex(t *testing.T) {
	f := newFixture(t)
	j, err := BuildJoinIndex(f.pool, f.store, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumTables() == 0 {
		t.Fatal("no JI relations")
	}
	// Backward by value on author/fn: (tail=fn, head=author) pairs.
	pat, ok := pathdict.CompileSteps(f.dict, []bool{false, false}, []string{"author", "fn"})
	if !ok {
		t.Fatal("compile")
	}
	ids := j.MatchingPaths(pat, false)
	if len(ids) != 1 {
		t.Fatalf("matching paths = %d, want 1", len(ids))
	}
	var heads []int64
	rows, err := j.BwdByValue(new(Scratch), ids[0], true, "jane", false, func(tail, head int64) error {
		heads = append(heads, head)
		return nil
	})
	if err != nil || rows != 2 || len(heads) != 2 {
		t.Fatalf("BwdByValue rows=%d heads=%v err=%v", rows, heads, err)
	}

	// Forward by head: fn children of author 6 with value jane.
	var tails []int64
	rows, err = j.FwdByHead(new(Scratch), ids[0], 6, true, "jane", func(tail int64) error {
		tails = append(tails, tail)
		return nil
	})
	if err != nil || rows != 1 || tails[0] != 7 {
		t.Fatalf("FwdByHead rows=%d tails=%v err=%v", rows, tails, err)
	}

	// Backward by tail: heads of author/fn instances ending at fn 7.
	var heads2 []int64
	rows, err = j.BwdByTail(new(Scratch), ids[0], false, "", 7, func(head int64) error {
		heads2 = append(heads2, head)
		return nil
	})
	if err != nil || rows != 1 || heads2[0] != 6 {
		t.Fatalf("BwdByTail rows=%d heads=%v err=%v", rows, heads2, err)
	}

	// JI space exceeds ASR space on the same data (two trees per path).
	a, err := BuildASR(f.pool, f.store, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	if j.Space().Trees != 2*a.Space().Trees {
		t.Fatalf("JI trees = %d, ASR trees = %d", j.Space().Trees, a.Space().Trees)
	}
}

func TestSpaceOrdering(t *testing.T) {
	// On the (deep-ish) book store: DATAPATHS entries > ROOTPATHS entries.
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Space().Entries <= rp.Space().Entries {
		t.Fatalf("DATAPATHS (%d entries) not larger than ROOTPATHS (%d)", dp.Space().Entries, rp.Space().Entries)
	}
	if rp.Space().Bytes <= 0 || dp.Space().Bytes < rp.Space().Bytes {
		t.Fatalf("space bytes ordering: rp=%d dp=%d", rp.Space().Bytes, dp.Space().Bytes)
	}
}

func TestKindString(t *testing.T) {
	if KindRootPaths.String() != "ROOTPATHS" || Kind(99).String() != "unknown" {
		t.Fatalf("Kind.String broken")
	}
	_ = sortedIDs([]int64{3, 1})
}
