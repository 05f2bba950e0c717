package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// outOfOrderDB builds a database (in memory when path is empty) whose store
// the node table cannot rebuild from id order alone: a parent whose
// children are out of id order (an insert that conflicted, retried with its
// template's ids after a later-numbered sibling committed), top-level
// documents out of id order (a transaction's new document replayed behind
// one numbered after it), an empty value, and deletes.
func outOfOrderDB(t *testing.T, path string) *DB {
	t.Helper()
	db, err := Open(Config{Path: path, BufferPoolBytes: 4 << 20, CheckpointWALBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmldb.ParseString(`<a><b>v0</b><c x="1">v1</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	root := doc.Root.ID
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	late := mustSub(t, `<late><d>v2</d><d>v3</d></late>`)
	tx := db.Begin()
	must(tx.Insert(root, late))
	must(db.InsertSubtree(root, mustSub(t, `<early>v4</early>`)))
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("insert beside a committed sibling: %v, want ErrConflict", err)
	}
	must(db.InsertSubtree(root, late)) // the template's ids, behind <early>
	must(db.InsertSubtree(root, xmldb.Text("empty", "")))
	gone := xmldb.Text("gone", "v6")
	must(db.InsertSubtree(root, gone))
	must(db.DeleteSubtree(gone.ID))
	must(db.DeleteSubtree(late.Children[0].ID))

	txd := db.Begin()
	must(txd.Insert(0, mustSub(t, `<doc2><e>v5</e></doc2>`)))
	must(db.InsertSubtree(0, mustSub(t, `<doc3 y="2"/>`)))
	must(txd.Commit()) // disjoint documents: replayed behind <doc3>
	must(db.InsertSubtree(0, mustSub(t, `<doc4/>`)))

	store := db.Store()
	byID := func(ns []*xmldb.Node) bool {
		return slices.IsSortedFunc(ns, func(a, b *xmldb.Node) int { return int(a.ID - b.ID) })
	}
	var roots []*xmldb.Node
	for _, d := range store.Docs {
		roots = append(roots, d.Root)
	}
	if byID(store.NodeByID(root).Children) || byID(roots) {
		t.Fatalf("setup left siblings in id order:\n%s", dumpDocs(store))
	}
	return db
}

// reopenDump opens the database at path and returns it with its documents
// dumped.
func reopenDump(t *testing.T, path string) (*DB, string) {
	t.Helper()
	db, err := Open(Config{Path: path, BufferPoolBytes: 4 << 20})
	if err != nil {
		t.Fatalf("reopen %s: %v", filepath.Base(path), err)
	}
	return db, dumpDocs(db.Store())
}

// TestNodeTableReopenFidelity: after Close and reopen, and in a Backup of
// a file-backed or an in-memory database, every document dumps byte for
// byte as it did before — child lists out of id order included — and the
// planner and the indices still agree with the rebuilt store.
func TestNodeTableReopenFidelity(t *testing.T) {
	for _, inMemory := range []bool{false, true} {
		nodeTableReopenFidelity(t, inMemory)
	}
}

func nodeTableReopenFidelity(t *testing.T, inMemory bool) {
	dir := t.TempDir()
	path, backup := filepath.Join(dir, "twig.db"), filepath.Join(dir, "backup.db")
	reopen := []string{path, backup}
	if inMemory {
		path, reopen = "", []string{backup}
	}
	db := outOfOrderDB(t, path)
	want, wantNext := dumpDocs(db.Store()), db.Store().NextID()
	if err := db.Backup(backup); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, p := range reopen {
		re, got := reopenDump(t, p)
		if got != want {
			t.Fatalf("%s: reopened store differs\ngot:\n%s\nwant:\n%s", filepath.Base(p), got, want)
		}
		if n := re.Store().NextID(); n != wantNext {
			t.Fatalf("%s: nextID %d, want %d", filepath.Base(p), n, wantNext)
		}
		assertPagesAccounted(t, re)
		for _, q := range []string{`//d`, `/a/empty`, `//e[. = 'v5']`, `/a/late`, `//@y`} {
			pat := xpath.MustParse(q)
			want := naive.Match(re.Store(), pat)
			for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
				if got, err := pinnedIDs(re, pat, s); err != nil || !equalIDs(got, want) {
					t.Fatalf("%s: %s via %v: %v %v, naive %v", filepath.Base(p), q, s, got, err, want)
				}
			}
			if got, err := re.Read(pat, ReadOpts{Planner: Auto}); err != nil || !equalIDs(got.IDs, want) {
				t.Fatalf("%s: %s via Auto: %v %v, naive %v", filepath.Base(p), q, got.IDs, err, want)
			}
		}
		// The reopened table takes further writes, marked nodes included.
		if err := re.InsertSubtree(re.Store().Docs[0].Root.ID, xmldb.Text("more", "v6")); err != nil {
			t.Fatal(err)
		}
		more := dumpDocs(re.Store())
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re, got = reopenDump(t, p)
		if got != more {
			t.Fatalf("%s: store after a further insert differs\ngot:\n%s\nwant:\n%s", filepath.Base(p), got, more)
		}
		re.Close()
	}
}

// TestNodeTableLongValues: values longer than one entry holds — too long
// for any index, so on a database without one — continue in chunk
// entries, which inserts write, deletes remove and reopen reassembles.
func TestNodeTableLongValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("0123456789", index.NodeChunk/4)
	if err := db.LoadXML(strings.NewReader(`<a><b>` + long + `</b><c></c><d>` + long[:index.NodeChunk] + `</d></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(); err != nil { // statistics only: commits the node table
		t.Fatal(err)
	}
	root := db.Store().Docs[0].Root.ID
	gone := xmldb.Text("gone", strings.Repeat("x", 2*index.NodeChunk+1))
	for _, err := range []error{
		db.InsertSubtree(root, xmldb.Text("e", long+long)),
		db.InsertSubtree(root, gone),
		db.DeleteSubtree(gone.ID),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := dumpDocs(db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, got := reopenDump(t, path)
	defer re.Close()
	if got != want {
		t.Fatalf("reopened store differs\ngot:\n%.2000s\nwant:\n%.2000s", got, want)
	}
	if n := re.CurrentSnapshot().env.Nodes.Tree().Stats().Entries; n != 11 {
		t.Fatalf("node table holds %d entries, want 11 (5 nodes, 6 continuations)", n)
	}
	assertPagesAccounted(t, re)
}

// TestNodeTableCrashStages: a crash image taken at each stage of a
// transaction's commit recovers to the documents before the transaction
// (prepared, validated) or after it (published), dumped byte for byte,
// on a store whose siblings are out of id order.
func TestNodeTableCrashStages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db := outOfOrderDB(t, path)
	pre := dumpDocs(db.Store())
	type image struct {
		stage   CommitStage
		db, wal []byte
	}
	var images []image
	db.SetCommitHook(func(stage CommitStage) {
		d, err1 := os.ReadFile(path)
		w, err2 := os.ReadFile(path + storage.WALSuffix)
		if err := errors.Join(err1, err2); err != nil {
			t.Errorf("stage %v: %v", stage, err)
			return
		}
		images = append(images, image{stage, d, w})
	})
	root := db.Store().Docs[0].Root
	tx := db.Begin()
	for _, err := range []error{
		tx.Insert(root.ID, mustSub(t, `<f><g>v7</g></f>`)),
		tx.Delete(root.Children[1].ID),
		tx.Insert(0, mustSub(t, `<doc5>v8</doc5>`)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(nil)
	post := dumpDocs(db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(images) != 3 {
		t.Fatalf("captured %d stage images, want 3", len(images))
	}
	for i, img := range images {
		p := filepath.Join(dir, fmt.Sprintf("stage%d.db", i))
		if err := errors.Join(os.WriteFile(p, img.db, 0o644), os.WriteFile(p+storage.WALSuffix, img.wal, 0o644)); err != nil {
			t.Fatal(err)
		}
		want := pre
		if img.stage == CommitStagePublished {
			want = post
		}
		re, got := reopenDump(t, p)
		if got != want {
			t.Fatalf("stage %v: recovered store differs\ngot:\n%s\nwant:\n%s", img.stage, got, want)
		}
		re.Close()
	}
}

// nodeEntry is one hand-built node table entry: node id, and the value's
// uvarints followed by raw value bytes.
func nodeEntry(id int64, fields []uint64, value string) btree.Entry {
	var val []byte
	for _, f := range fields {
		val = binary.AppendUvarint(val, f)
	}
	return btree.Entry{Key: index.NodeKey(nil, id), Val: append(val, value...)}
}

// TestNodeTableRejectsCorruptEntries: a catalog naming a hand-built node
// table that is short, out of order or inconsistent fails Open with
// index.ErrCorruptCatalog — never a panic, never a wrong store.
func TestNodeTableRejectsCorruptEntries(t *testing.T) {
	const sym = 1 << 1 // symbol 1, no value
	doc := nodeEntry(1, []uint64{1, sym}, "")
	cases := []struct {
		name    string
		entries []btree.Entry
	}{
		{"empty entry", []btree.Entry{{Key: index.NodeKey(nil, 1)}}},
		{"short marked header", []btree.Entry{{Key: index.NodeKey(nil, 1), Val: []byte{0, 1}}}},
		{"short key", []btree.Entry{{Key: []byte{0, 1}, Val: doc.Val}}},
		{"missing parent", []btree.Entry{doc, nodeEntry(3, []uint64{1, sym}, "")}},
		{"own parent", []btree.Entry{doc, nodeEntry(2, []uint64{0, 0, 2, sym}, "")}},
		{"parent comes later", []btree.Entry{doc, nodeEntry(5, []uint64{^uint64(0) - 1, sym}, ""), nodeEntry(7, []uint64{6, sym}, "")}},
		{"unknown symbol", []btree.Entry{nodeEntry(1, []uint64{1, 999 << 1}, "")}},
		{"value without hasValue", []btree.Entry{nodeEntry(1, []uint64{1, sym}, "v")}},
		{"stray continuation", []btree.Entry{doc, {Key: index.ChunkKey(nil, 1, 1), Val: []byte("v")}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "twig.db")
			db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.LoadXML(strings.NewReader(`<a><b/></a>`)); err != nil {
				t.Fatal(err)
			}
			if err := db.Build(); err != nil {
				t.Fatal(err)
			}
			bad, err := btree.BulkLoad(db.pool, "NODES", c.entries)
			if err != nil {
				t.Fatal(err)
			}
			// White-box: no other goroutine uses db, so the published
			// snapshot's table can be swapped for the one Close commits.
			db.CurrentSnapshot().env.Nodes = index.OpenNodeTable(db.pool, bad.Meta(), db.dict)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
			if err == nil {
				re.Close()
				t.Fatalf("Open accepted the table:\n%s", dumpDocs(re.Store()))
			}
			if !errors.Is(err, index.ErrCorruptCatalog) {
				t.Fatalf("Open: %v, want index.ErrCorruptCatalog", err)
			}
		})
	}
}

// TestDurableCommitFollowsChange is TestCommitAllocFollowsChange on a
// file-backed database: the WAL bytes and the heap bytes one durable
// InsertSubtree of a listing costs follow the change, not the database.
// Rewriting the store into the catalog at every commit grew both ≈8×
// between these two sizes.
func TestDurableCommitFollowsChange(t *testing.T) {
	perInsert := func(itemsPerRegion int) (walBytes, allocBytes float64) {
		path := filepath.Join(t.TempDir(), "twig.db")
		db, items := xmarkItems(t, itemsPerRegion, Config{Path: path, BufferPoolBytes: 64 << 20, CheckpointWALBytes: 1 << 30})
		defer db.Close()
		const warm, n = 10, 40
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.GC()
				walBytes = -float64(db.fdisk.WALSize())
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				allocBytes = -float64(ms.TotalAlloc)
			}
			if err := db.InsertSubtree(items[i*7%len(items)], listing(i)); err != nil {
				t.Fatal(err)
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return (walBytes + float64(db.fdisk.WALSize())) / n, (allocBytes + float64(ms.TotalAlloc)) / n
	}
	smallWAL, smallAlloc := perInsert(10)
	bigWAL, bigAlloc := perInsert(80)
	t.Logf("per durable insert: WAL %.0f → %.0f bytes, allocated %.0f → %.0f bytes (10 → 80 items/region)", smallWAL, bigWAL, smallAlloc, bigAlloc)
	if bigWAL > 1.5*smallWAL {
		t.Errorf("a commit appends %.0f WAL bytes at 80 items/region, %.2f× the %.0f at 10", bigWAL, bigWAL/smallWAL, smallWAL)
	}
	if bigAlloc > 1.5*smallAlloc {
		t.Errorf("a commit allocates %.0f bytes at 80 items/region, %.2f× the %.0f at 10", bigAlloc, bigAlloc/smallAlloc, smallAlloc)
	}
}

// TestClimbsRejectMissingNodeEntry: the node table is Edge's backward link
// index, so every id a climb reads must have an entry at the same
// snapshot. With one entry deleted from under a built Edge, Edge, DG+Edge,
// IF+Edge and XRel+Edge — the strategies that climb — answer with an error
// matching index.ErrCorruptCatalog, never with fewer ids; and a snapshot
// without a node table is refused before it runs.
func TestClimbsRejectMissingNodeEntry(t *testing.T) {
	db := goldenDB(t, index.PathsOptions{}, "")
	defer db.Close()
	pat := xpath.MustParse(`/a/b/a/b[c = 'v1']`)
	climbs := []plan.Strategy{plan.EdgePlan, plan.DataGuideEdgePlan, plan.FabricEdgePlan, plan.XRelPlan}
	for _, s := range climbs {
		if res, err := db.Read(pat, ReadOpts{Strategy: s}); err != nil || len(res.IDs) != 1 {
			t.Fatalf("%v before the delete: %v, %v", s, res.IDs, err)
		}
	}

	// Delete the entry of the match itself, the parent of its value leaf:
	// every climb reads it on the way up.
	snap := db.CurrentSnapshot()
	match := naive.Match(db.Store(), pat)[0]
	nodes := snap.env.Nodes.CloneCOW(storage.PageID(db.fdisk.NumPages()))
	key := index.NodeKey(nil, match)
	val, ok, err := nodes.Tree().Get(key)
	if err == nil && ok {
		ok, err = nodes.Tree().Delete(key, val)
	}
	if err != nil || !ok {
		t.Fatalf("deleting node %d's entry: %v, %v", match, ok, err)
	}
	// White-box: no other goroutine uses db, so the published snapshot's
	// table can be swapped.
	snap.env.Nodes = nodes
	for _, s := range climbs {
		res, err := db.Read(pat, ReadOpts{Strategy: s})
		if !errors.Is(err, index.ErrCorruptCatalog) {
			t.Errorf("%v without node %d's entry: %v, %v; want index.ErrCorruptCatalog", s, match, res.IDs, err)
		}
	}

	bare := *db.Env()
	bare.Nodes = nil
	for _, s := range climbs {
		if _, err := plan.Build(&bare, s, pat); err == nil || !strings.Contains(err.Error(), "node table not built") {
			t.Errorf("%v without a node table: %v, want refused", s, err)
		}
	}
}
