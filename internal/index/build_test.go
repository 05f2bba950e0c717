package index

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// buildSite is a site over store with a device and pool of its own, and a
// dictionary holding every label of the store in document order, as
// statistics collection leaves it before an engine build.
func buildSite(store *xmldb.Store, opts PathsOptions) (Site, *storage.FileDisk) {
	dict := pathdict.NewDict()
	store.Walk(func(n *xmldb.Node) bool {
		dict.Intern(n.Label)
		return true
	})
	dev := storage.NewMemFileDisk()
	return Site{Pool: storage.NewPool(dev, 8<<20), Store: store, Dict: dict, Ptab: pathdict.NewPathTable(), Opts: opts}, dev
}

// deviceImage hashes every page of dev and lists the site's path table.
func deviceImage(t *testing.T, s Site, dev *storage.FileDisk) string {
	t.Helper()
	h := fnv.New64a()
	for id := 0; id < dev.NumPages(); id++ {
		hashPage(t, h, s.Pool, storage.PageID(id))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pages=%d fnv=%016x paths:", dev.NumPages(), h.Sum64())
	s.Ptab.All(func(id pathdict.PathID, p pathdict.Path) { fmt.Fprintf(&b, " %d=%s", id, p.String(s.Dict)) })
	return b.String()
}

// TestBuildKindsMatchesSerialBuild builds every member with BuildKinds,
// its prepares on four goroutines, and again with Build one member after
// another, each into a device of its own: every page and every path id is
// the same.
func TestBuildKindsMatchesSerialBuild(t *testing.T) {
	store := xmldb.NewStore()
	store.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 4, Seed: 1}))
	store.AddDocument(datagen.DBLP(datagen.DBLPConfig{Papers: 100, Seed: 2}))
	var kinds []Kind
	for k := Kind(0); k < NumKinds; k++ {
		kinds = append(kinds, k)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, opts := range []PathsOptions{{}, {RawIDs: true, PathIDKeys: true}} {
		serial, serialDev := buildSite(store, opts)
		for _, k := range kinds {
			if _, err := Build(k, serial); err != nil {
				t.Fatalf("%+v: build %v: %v", opts, k, err)
			}
		}
		concurrent, concurrentDev := buildSite(store, opts)
		built, err := BuildKinds(concurrent, kinds...)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for i, b := range built {
			if s, ok := b.(Structure); ok && s.Kind() != kinds[i] {
				t.Fatalf("%+v: built[%d] is a %v, want %v", opts, i, s.Kind(), kinds[i])
			}
		}
		if got, want := deviceImage(t, concurrent, concurrentDev), deviceImage(t, serial, serialDev); got != want {
			t.Fatalf("%+v: concurrent build differs from the serial one\ngot:  %s\nwant: %s", opts, got, want)
		}
	}
}

// TestBuildKindsFreesPagesOnError fails a build at its last member, whose
// prepare refuses PathIDKeys without a path table: every page the loads
// of the members before it took is back on the free list.
func TestBuildKindsFreesPagesOnError(t *testing.T) {
	store := xmldb.NewStore()
	store.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 4, Seed: 1}))
	s, dev := buildSite(store, PathsOptions{PathIDKeys: true})
	s.Ptab = nil
	if _, err := BuildKinds(s, KindEdge, KindASR, KindContainment, KindJoinIndex, KindDataPaths); err == nil {
		t.Fatal("DATAPATHS under PathIDKeys without a path table: want an error")
	}
	free := dev.FreeList()
	if dev.NumPages() == 0 || len(free) != dev.NumPages() {
		t.Fatalf("%d of %d pages free after the failed build", len(free), dev.NumPages())
	}
}
