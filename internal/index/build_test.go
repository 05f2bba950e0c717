package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/idlist"
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

// outOfOrderStore is an XMark document whose root also holds twelve
// subtrees numbered from one reserved block each and attached in the
// reverse order of their blocks, as two transactions' reserved ranges
// commit: under that parent, document order runs against id order, so
// rows of one key come out of IdList order.
func outOfOrderStore(t *testing.T) *xmldb.Store {
	store := xmldb.NewStore()
	store.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 4, Seed: 1}))
	root := store.Docs[0].Root
	const subtrees, size = 12, 5
	base := store.NextID()
	for i := subtrees - 1; i >= 0; i-- {
		doc, err := xmldb.ParseString(`<e><k>v</k><k>w</k><k>v</k><k/></e>`)
		if err != nil {
			t.Fatal(err)
		}
		next := base + int64(i*size)
		var number func(n *xmldb.Node)
		number = func(n *xmldb.Node) {
			n.ID, next = next, next+1
			for _, c := range n.Children {
				number(c)
			}
		}
		number(doc.Root)
		if err := store.AttachNumberedSubtree(root, doc.Root); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// sparseStore is an XMark document and a DBLP one with every subtree
// rooted at an id divisible by 7 below the document roots deleted: many
// head ids below the store's next id have no rows.
func sparseStore(t *testing.T) *xmldb.Store {
	store := xmldb.NewStore()
	store.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 4, Seed: 3}))
	store.AddDocument(datagen.DBLP(datagen.DBLPConfig{Papers: 60, Seed: 4}))
	var doomed []*xmldb.Node
	store.Walk(func(n *xmldb.Node) bool {
		if n.ID%7 == 0 && n.ParentID != 0 {
			doomed = append(doomed, n)
		}
		return true
	})
	for _, n := range doomed {
		if store.NodeByID(n.ID) == n { // not inside a subtree already deleted
			if err := store.DetachSubtree(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// byLeadingPath splits entries sorted by their whole keys into one run per
// 4-byte leading path id, each key stripped of the id and of trim trailing
// bytes.
func byLeadingPath(entries []btree.Entry, trim int) map[pathdict.PathID][]btree.Entry {
	runs := map[pathdict.PathID][]btree.Entry{}
	for _, e := range entries {
		id := pathdict.PathID(binary.BigEndian.Uint32(e.Key))
		runs[id] = append(runs[id], btree.Entry{Key: e.Key[4 : len(e.Key)-trim], Val: e.Val})
	}
	return runs
}

// TestBuildSortMatchesReference builds ROOTPATHS, DATAPATHS, JoinIndex and
// ASR over a store with ids out of document order under one parent, over
// one with sparse head ids and over one with more head ids than rows,
// under three option sets, at GOMAXPROCS 1 and 4: every tree holds,
// entry for entry, the rows its prepare emits in the order one
// slices.SortFunc of them all, with the whole comparator, gives them —
// Paths by whole key then IdList, JoinIndex by whole key, ASR by whole
// key with its emission number.
func TestBuildSortMatchesReference(t *testing.T) {
	// Ids handed out and deleted since can leave more head ids than
	// DATAPATHS rows: then a run holds several heads.
	churned := sparseStore(t)
	churned.SetNextID(64 * churned.NextID())
	stores := map[string]*xmldb.Store{"out-of-order": outOfOrderStore(t), "sparse": sparseStore(t), "churned": churned}
	optSets := map[string]PathsOptions{
		"default":    {},
		"raw-pathid": {RawIDs: true, PathIDKeys: true},
		"keep-head":  {KeepHead: func(id int64) bool { return id%3 != 0 }},
	}
	kinds := []Kind{KindRootPaths, KindDataPaths, KindJoinIndex, KindASR}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for storeName, store := range stores {
		for optName, opts := range optSets {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%s/%s/GOMAXPROCS=%d", storeName, optName, procs)
				s, _ := buildSite(store, opts)
				built, err := BuildKinds(s, kinds...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// The reference emits from a site of its own, interning
				// paths in the build's order.
				ref, _ := buildSite(store, opts)
				for i, k := range kinds[:2] {
					p := newPaths(k == KindDataPaths, nil, ref)
					var reg *pathdict.PathTable
					if opts.PathIDKeys {
						reg = ref.Ptab
					}
					want, order := p.rows(ref, reg), p.idOrder()
					slices.SortFunc(want, func(a, b btree.Entry) int {
						if c := bytes.Compare(a.Key, b.Key); c != 0 {
							return c
						}
						return order(a.Val, b.Val)
					})
					if got := treeEntries(t, built[i].(*Paths).tree); !entriesEqual(got, want) {
						t.Fatalf("%s: %v holds %d entries, not the %d of the reference sort in its order", name, k, len(got), len(want))
					}
				}

				wholeKey := func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) }
				ji := built[2].(*JoinIndex)
				fwd, bwd := (&JoinIndex{registry: newRootedRegistry(store)}).rows(ref)
				slices.SortFunc(fwd, wholeKey)
				slices.SortFunc(bwd, wholeKey)
				asr := built[3].(*ASR)
				rows := (&ASR{registry: newRootedRegistry(store)}).rows(ref)
				slices.SortFunc(rows, wholeKey)
				for label, c := range map[string]struct {
					trees map[pathdict.PathID]*btree.Tree
					want  map[pathdict.PathID][]btree.Entry
				}{
					"JoinIndex forward":  {ji.fwd, byLeadingPath(fwd, 0)},
					"JoinIndex backward": {ji.bwd, byLeadingPath(bwd, 0)},
					"ASR":                {asr.tables, byLeadingPath(rows, 4)},
				} {
					if len(c.trees) != len(c.want) {
						t.Fatalf("%s: %s has %d relations, the reference %d", name, label, len(c.trees), len(c.want))
					}
					for id, want := range c.want {
						if got := treeEntries(t, c.trees[id]); !entriesEqual(got, want) {
							t.Fatalf("%s: %s relation %d holds %d entries, not the %d of the reference sort in its order", name, label, id, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestSortEntriesMatchesComparisonSort sorts keys drawn from a few bytes —
// zero bytes, keys that are prefixes of others, long shared prefixes,
// equal keys whose id lists decide — in random, sorted, reversed and
// constant order, with and without the id lists and with the split budget
// spent from the start: the entries come out as one comparison sort by
// key, then idlist.Compare, leaves them.
func TestSortEntriesMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0, 1, 'a', 0xff}
	var entries []btree.Entry
	for i := 0; i < 3000; i++ {
		key := bytes.Repeat([]byte{'p'}, rng.Intn(3)*8) // shared prefixes of whole words
		for n := rng.Intn(20); n > 0; n-- {
			key = append(key, alphabet[rng.Intn(len(alphabet))])
		}
		ids := make([]int64, rng.Intn(4))
		for j := range ids {
			ids[j] = 1 + rng.Int63n(300)
		}
		entries = append(entries, btree.Entry{Key: key, Val: idlist.EncodeDelta(nil, ids)})
	}
	byKeyThenIDs := func(a, b btree.Entry) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return idlist.Compare(a.Val, b.Val)
	}
	decode := func(dst []int64, val []byte) []int64 {
		dst, err := idlist.DecodeDeltaInto(dst, val)
		if err != nil {
			t.Fatal(err)
		}
		return dst
	}
	want := slices.Clone(entries)
	slices.SortFunc(want, byKeyThenIDs)
	reversed := slices.Clone(want)
	slices.Reverse(reversed)
	constant := make([]btree.Entry, 100)
	for i := range constant {
		constant[i] = want[len(want)/2]
	}
	for name, in := range map[string][]btree.Entry{"random": entries, "sorted": want, "reversed": reversed, "constant": constant} {
		for _, limit := range []int{0, 1, 2 * bits.Len(uint(len(in)))} {
			ref := slices.Clone(in)
			slices.SortFunc(ref, byKeyThenIDs)
			got := slices.Clone(in)
			sortFrom(got, 0, limit, &byIDs{decode: decode})
			if !entriesEqual(got, ref) {
				t.Fatalf("%s, split budget %d: entries out of key-then-IdList order", name, limit)
			}
			got = slices.Clone(in)
			sortFrom(got, 0, limit, nil)
			if !slices.IsSortedFunc(got, func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) }) {
				t.Fatalf("%s, split budget %d, no id lists: keys out of order", name, limit)
			}
		}
	}
}
