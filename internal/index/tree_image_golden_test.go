package index

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/containment"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// imageDocs is the fixed corpus of internal/engine/catalog_golden_test.go:
// labels a and b recur at several depths (a recursive schema), and equal
// (head, value, path) keys occur under several nodes.
var imageDocs = []string{
	`<a x="v0"><b><c>v0</c><a><b><c>v1</c></b></a></b><d><b>v1</b></d></a>`,
	`<lib><book id="1"><title>T</title><author><name>N</name></author></book><book><title>U</title></book></lib>`,
}

var imageConfigs = []struct {
	name string
	opts PathsOptions
}{
	{"default", PathsOptions{}},
	{"raw-pathid", PathsOptions{RawIDs: true, PathIDKeys: true}},
	{"keephead", PathsOptions{KeepHead: func(id int64) bool { return id%2 == 0 }}},
}

const treeImagesGolden = "tree_images.golden"

// TestTreeImagesGolden pins every byte the index layer puts on a page:
// per structure, its Space and an FNV-1a over every page (id and image)
// WalkPages yields, for the fixed corpus under three option sets, and again
// for the ROOTPATHS and DATAPATHS copy-on-write clones after a scripted
// insert → insert → delete. Bulk loads sort stably and equal keys are
// common, so the file also pins the order rows are emitted in. It was
// generated before ROOTPATHS/DATAPATHS became one type over one emitter;
// regenerate with -update only for a deliberate format change.
func TestTreeImagesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range imageConfigs {
		store := xmldb.NewStore()
		for _, src := range imageDocs {
			doc, err := xmldb.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			store.AddDocument(doc)
		}
		dict, ptab := pathdict.NewDict(), pathdict.NewPathTable()
		type clone struct {
			m    Maintained
			pool *storage.Pool
		}
		var clones []clone
		for k := Kind(0); k < NumKinds; k++ {
			dev := storage.NewDisk()
			pool := storage.NewPool(dev, 8<<20)
			built, err := Build(k, Site{Pool: pool, Store: store, Dict: dict, Ptab: ptab, Opts: cfg.opts})
			if err != nil {
				t.Fatalf("%s: build %v: %v", cfg.name, k, err)
			}
			switch b := built.(type) {
			case Structure:
				fmt.Fprintf(&got, "%s %v %s\n", cfg.name, k, structureImage(t, b, pool))
			case *containment.Index:
				// Not a Structure (never persisted): its own pool holds
				// nothing but its element-list tree.
				h := fnv.New64a()
				for id := 0; id < dev.NumPages(); id++ {
					hashPage(t, h, pool, storage.PageID(id))
				}
				fmt.Fprintf(&got, "%s %v bytes=%d pages=%d fnv=%016x\n", cfg.name, k, b.Space(), dev.NumPages(), h.Sum64())
			}
			if m, ok := built.(Maintained); ok {
				clones = append(clones, clone{m.CloneCOW(storage.PageID(dev.NumPages())), pool})
			}
		}

		// Section 7 maintenance on the clones: a recursive subtree with
		// duplicate keys, a subtree large enough to split leaves whose
		// rows collide with existing keys, then a delete of an original
		// subtree whose keys the second insert duplicated.
		insert := func(parentID int64, sub *xmldb.Node) {
			t.Helper()
			if err := store.AttachSubtree(store.NodeByID(parentID), sub); err != nil {
				t.Fatal(err)
			}
			for _, c := range clones {
				if err := c.m.InsertSubtree(store, sub); err != nil {
					t.Fatalf("%s: %v insert: %v", cfg.name, c.m.Kind(), err)
				}
			}
		}
		insert(6, xmldb.Elem("a",
			xmldb.Elem("b", xmldb.Text("c", "v1")),
			xmldb.Elem("b", xmldb.Text("c", "v1"))))
		book := xmldb.Elem("book", xmldb.Text("title", "T"))
		for i := 0; i < 120; i++ {
			book.AddChild(xmldb.Elem("author", xmldb.Text("name", "N"), xmldb.Text("name", fmt.Sprintf("N%d", i%7))))
		}
		insert(10, book)
		doomed := store.NodeByID(11)
		for _, c := range clones {
			if err := c.m.DeleteSubtree(store, doomed); err != nil {
				t.Fatalf("%s: %v delete: %v", cfg.name, c.m.Kind(), err)
			}
		}
		if err := store.DetachSubtree(doomed); err != nil {
			t.Fatal(err)
		}
		for _, c := range clones {
			retired, fresh := c.m.TakeRetired(), c.m.TakeFresh()
			slices.Sort(retired)
			slices.Sort(fresh)
			fmt.Fprintf(&got, "%s %v/maintained %s retired=%v fresh=%v\n", cfg.name, c.m.Kind(),
				structureImage(t, c.m, c.pool), retired, fresh)
		}
	}

	path := filepath.Join("testdata", treeImagesGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("page images differ from %s: a key, a value or the order of equal keys moved\ngot:\n%swant:\n%s", path, got.Bytes(), want)
	}
}

func structureImage(t *testing.T, s Structure, pool *storage.Pool) string {
	t.Helper()
	h := fnv.New64a()
	if err := s.WalkPages(func(id storage.PageID) error {
		hashPage(t, h, pool, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sp := s.Space()
	return fmt.Sprintf("bytes=%d pages=%d entries=%d trees=%d fnv=%016x", sp.Bytes, sp.Pages, sp.Entries, sp.Trees, h.Sum64())
}

func hashPage(t *testing.T, h io.Writer, pool *storage.Pool, id storage.PageID) {
	t.Helper()
	pg, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%d:", id)
	h.Write(pg.Data)
	pool.Unpin(pg, false)
}
