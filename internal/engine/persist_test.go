package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// allKinds is the full buildable family (the eight strategy-backing index
// structures; Containment is the non-persisted extension).
var allKinds = []index.Kind{
	index.KindRootPaths, index.KindDataPaths, index.KindEdge,
	index.KindDataGuide, index.KindIndexFabric, index.KindASR,
	index.KindJoinIndex, index.KindXRel,
}

// persistQueries exercise every axis/predicate feature.
var persistQueries = []string{
	`/a/b/c`, `//c`, `//b[@x = 'v0']`, `/a//b[d = 'v2']`,
	`//a[c = 'v0']/b`, `//b[c]`, `/a/d/b[. = 'v1']`, `//a[//c = 'v0']`,
}

// TestPersistReopen builds the full index family into a file, closes, and
// reopens: every strategy must return identical results with zero rebuild
// work (no device writes happen on the reopened database until a
// mutation).
func TestPersistReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	rng := rand.New(rand.NewSource(7))

	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	doc := genDoc(rng, 120)
	db.AddDocument(doc)
	db.AddDocument(genDoc(rng, 60))
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}

	type key struct {
		q     string
		strat int
	}
	want := map[key][]int64{}
	for _, q := range persistQueries {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range diffStrategies {
			ids, err := pinnedIDs(db, pat, s)
			if err != nil {
				t.Fatalf("%s via %v before close: %v", q, s, err)
			}
			want[key{q, int(s)}] = ids
		}
	}
	wantNodes := db.NodeCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NodeCount(); got != wantNodes {
		t.Fatalf("reopened store has %d nodes, want %d", got, wantNodes)
	}
	assertPagesAccounted(t, re)
	for _, q := range persistQueries {
		pat, _ := xpath.Parse(q)
		// The restored store must agree with the indices: the naive matcher
		// runs on the deserialised documents.
		wantNaive := re.MatchNaive(pat)
		if !reflect.DeepEqual(wantNaive, want[key{q, int(diffStrategies[0])}]) {
			t.Fatalf("%s: naive on restored store got %v want %v", q, wantNaive, want[key{q, int(diffStrategies[0])}])
		}
		for _, s := range diffStrategies {
			ids, err := pinnedIDs(re, pat, s)
			if err != nil {
				t.Fatalf("%s via %v after reopen: %v", q, s, err)
			}
			if !equalIDs(ids, want[key{q, int(s)}]) {
				t.Fatalf("%s via %v after reopen: got %v want %v", q, s, ids, want[key{q, int(s)}])
			}
		}
	}
	// Zero rebuild work: queries on the reopened database read pages, they
	// never write any.
	if st := re.DeviceStats(); st.Writes != 0 {
		t.Fatalf("reopen performed %d device writes; rebuild suspected", st.Writes)
	}
}

// TestPersistIncrementalAcrossReopen checks that Section 7 incremental
// maintenance keeps working across restarts: insert before close, insert
// after reopen, and verify ROOTPATHS/DATAPATHS against the naive oracle.
func TestPersistIncrementalAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	doc := &xmldb.Document{Root: xmldb.Elem("a",
		xmldb.Elem("b", xmldb.Text("c", "v1")),
		xmldb.Text("c", "v2"),
	)}
	db.AddDocument(doc)
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	sub := &xmldb.Document{Root: xmldb.Elem("b", xmldb.Text("d", "v3"))}
	if err := db.InsertSubtree(doc.Root.ID, sub.Root); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Insert more after reopening; the reopened trees take in-place writes.
	sub2 := &xmldb.Document{Root: xmldb.Elem("b", xmldb.Text("c", "v1"))}
	rootID := re.Store().Docs[0].Root.ID
	if err := re.InsertSubtree(rootID, sub2.Root); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//b`, `//b[c = 'v1']`, `/a/b/d`, `//d[. = 'v3']`} {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Match(re.Store(), pat)
		for _, s := range diffStrategies[:2] { // RP, DP stay maintained
			ids, err := pinnedIDs(re, pat, s)
			if err != nil {
				t.Fatalf("%s via %v: %v", q, s, err)
			}
			if !equalIDs(ids, want) {
				t.Fatalf("%s via %v: got %v want %v", q, s, ids, want)
			}
		}
	}

	// Delete across a third generation.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	victim := re2.Store().Docs[0].Root.Children[0] // the original <b>
	if err := re2.DeleteSubtree(victim.ID); err != nil {
		t.Fatal(err)
	}
	pat, _ := xpath.Parse(`//c`)
	want := naive.Match(re2.Store(), pat)
	ids, err := pinnedIDs(re2, pat, diffStrategies[1])
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, want) {
		t.Fatalf("after delete: got %v want %v", ids, want)
	}
}

// assertPagesAccounted checks a file-backed database's page accounting:
// every page id below the device's page count is exactly one of reachable
// from the current version's indices, in the catalog chain, or on the free
// chain. A page that is none of them is referenced by nothing, for good.
func assertPagesAccounted(t *testing.T, db *DB) {
	t.Helper()
	owner := map[storage.PageID]string{}
	claim := func(what string) func(storage.PageID) error {
		return func(id storage.PageID) error {
			if prev, dup := owner[id]; dup {
				t.Fatalf("page %d is %s and %s", id, prev, what)
			}
			owner[id] = what
			return nil
		}
	}
	if err := db.walkSnapshotPages(db.CurrentSnapshot(), claim("reachable")); err != nil {
		t.Fatal(err)
	}
	for _, id := range db.catalogPages {
		claim("catalog")(id)
	}
	for _, id := range db.fdisk.FreeList() {
		claim("free")(id)
	}
	n := db.fdisk.NumPages()
	orphans := 0
	for id := 0; id < n; id++ {
		if _, ok := owner[storage.PageID(id)]; !ok {
			orphans++
		}
	}
	if orphans > 0 || len(owner) != n {
		t.Fatalf("%d of %d pages are referenced by nothing (%d accounted for)", orphans, n, len(owner))
	}
}

// TestReopenAccountsForEveryPage drops and replaces whole index structures
// — the family plus Containment, then an insert, which keeps only
// ROOTPATHS/DATAPATHS, then a rebuild — and checks after Close and reopen
// that every page is reachable, catalog or free. A reader pinned before the
// drop keeps answering through the dropped Edge index until it finishes.
func TestReopenAccountsForEveryPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	rng := rand.New(rand.NewSource(11))
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	db.AddDocument(genDoc(rng, 120))
	db.AddDocument(genDoc(rng, 60))
	if err := db.Build(append(allKinds, index.KindContainment)...); err != nil {
		t.Fatal(err)
	}
	reader := db.Begin() // pins the version that holds every structure
	if err := db.InsertSubtree(db.Store().Docs[0].Root.ID, genDoc(rng, 20).Root); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}
	for _, q := range persistQueries {
		pat := xpath.MustParse(q)
		want, err := reader.Read(pat, ReadOpts{Planner: Oracle})
		if err != nil {
			t.Fatal(err)
		}
		got, err := reader.Read(pat, ReadOpts{Strategy: plan.EdgePlan})
		if err != nil {
			t.Fatalf("%s via Edge on the pinned version: %v", q, err)
		}
		if !equalIDs(got.IDs, want.IDs) {
			t.Fatalf("%s via Edge on the pinned version: got %v want %v", q, got.IDs, want.IDs)
		}
	}
	reader.Rollback()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertPagesAccounted(t, re)
}

// TestCloseReleasesRetainedSnapshots: the AS OF window's standing pins end
// with the database, so the pages only retained versions still read are
// freed by the close commit rather than orphaned.
func TestCloseReleasesRetainedSnapshots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	rng := rand.New(rand.NewSource(12))
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20, RetainSnapshots: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.AddDocument(genDoc(rng, 80))
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.InsertSubtree(db.Store().Docs[0].Root.ID, genDoc(rng, 8).Root); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.RetainedSnapshots(); got != 4 {
		t.Fatalf("retained snapshots = %d, want 4", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertPagesAccounted(t, re)
}

// TestCloseRetiresContainment: a Containment index has no catalog record,
// so nothing reopens it; Close retires its pages with the close commit
// rather than orphaning them.
func TestCloseRetiresContainment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	db.AddDocument(genDoc(rand.New(rand.NewSource(13)), 120))
	if err := db.Build(index.KindRootPaths, index.KindContainment); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertPagesAccounted(t, re)
}

// TestOpenRefusesOtherFormats: Open refuses a file whose superblocks are
// stamped with storage version 2, or whose catalog (sealed under a new
// superblock, so the refusal comes after recovery) is version 1, 2, 3 or
// 5, with storage.ErrFormatVersion, and leaves the database file and its
// WAL as they were.
func TestOpenRefusesOtherFormats(t *testing.T) {
	stamp := map[string]func(t *testing.T, path string){
		"storage v2": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Each superblock slot (at 0 and 2048): the version, then the
			// CRC over the slot's bytes 0..35.
			for _, sb := range [][]byte{raw[:40], raw[2048:2088]} {
				binary.BigEndian.PutUint32(sb[8:], 2)
				binary.BigEndian.PutUint32(sb[36:], crc32.ChecksumIEEE(sb[:36]))
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, v := range []byte{1, 2, 3, 5} {
		stamp[fmt.Sprintf("catalog v%d", v)] = func(t *testing.T, path string) { restampCatalog(t, path, v) }
	}
	for name, restamp := range stamp {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.db")
			db := goldenDB(t, index.PathsOptions{}, path)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			restamp(t, path)
			file, _ := os.ReadFile(path)
			wal, _ := os.ReadFile(path + storage.WALSuffix)
			if _, err := Open(Config{Path: path}); !errors.Is(err, storage.ErrFormatVersion) {
				t.Fatalf("open: got %v, want ErrFormatVersion", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, file) {
				t.Fatal("the refused open changed the database file")
			}
			if got, _ := os.ReadFile(path + storage.WALSuffix); !bytes.Equal(got, wal) {
				t.Fatal("the refused open changed the WAL")
			}
		})
	}
}

// restampCatalog rewrites the catalog version of the closed database at
// path to v, copy-on-write into a fresh page sealed as the catalog root.
func restampCatalog(t *testing.T, path string, v byte) {
	t.Helper()
	fd, err := storage.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	root, buf := fd.Meta().CatalogRoot, make([]byte, storage.PageSize)
	if err := fd.Read(root, buf); err != nil {
		t.Fatal(err)
	}
	buf[catalogPageHeader+len(catalogMagic)] = v
	restamped := fd.Allocate()
	if err := errors.Join(fd.Write(restamped, buf), fd.Free(root), fd.Seal(restamped, nil)); err != nil {
		t.Fatal(err)
	}
}
