package containment

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

func buildIndex(t *testing.T, xml string) (*Index, *xmldb.Store) {
	t.Helper()
	doc, err := xmldb.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	s := xmldb.NewStore()
	s.AddDocument(doc)
	ix, err := Build(storage.NewPool(storage.NewDisk(), 8<<20), s, pathdict.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	return ix, s
}

func TestRegionEncodingProperties(t *testing.T) {
	ix, s := buildIndex(t, `<a><b><c/></b><b/></a>`)
	// Region containment must mirror tree ancestry for every node pair.
	var nodes []*xmldb.Node
	s.Walk(func(n *xmldb.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	isAncestor := func(a, d *xmldb.Node) bool {
		for cur := s.Parent(d); cur != nil; cur = s.Parent(cur) {
			if cur == a {
				return true
			}
		}
		return false
	}
	for _, a := range nodes {
		ra, ok := ix.Region(a.ID)
		if !ok {
			t.Fatalf("no region for %d", a.ID)
		}
		for _, d := range nodes {
			rd, _ := ix.Region(d.ID)
			if got, want := ra.Contains(rd), isAncestor(a, d); got != want {
				t.Fatalf("Contains(%s#%d, %s#%d) = %v, want %v", a.Label, a.ID, d.Label, d.ID, got, want)
			}
			if got, want := ra.ParentOf(rd), s.Parent(d) == a; got != want {
				t.Fatalf("ParentOf(%s#%d, %s#%d) = %v, want %v", a.Label, a.ID, d.Label, d.ID, got, want)
			}
		}
	}
}

func TestCandidatesSortedByStart(t *testing.T) {
	ix, _ := buildIndex(t, `<a><b/><a><b/><b/></a></a>`)
	var prev int64 = -1
	n, err := ix.Candidates(new(btree.PrefixScan), "b", func(r Region) error {
		if r.Start <= prev {
			t.Fatalf("candidates not in start order")
		}
		prev = r.Start
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("candidates = %d, %v", n, err)
	}
	n, err = ix.Candidates(new(btree.PrefixScan), "nosuch", func(Region) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("unknown label = %d, %v", n, err)
	}
}

// brute-force oracles for the semi-joins.
func bruteAnc(anc, desc []Region, parentOnly bool) []Region {
	var out []Region
	for _, a := range anc {
		for _, d := range desc {
			if a.Contains(d) && (!parentOnly || a.Level+1 == d.Level) {
				out = append(out, a)
				break
			}
		}
	}
	SortRegions(out)
	return out
}

func bruteDesc(anc, desc []Region, parentOnly bool) []Region {
	var out []Region
	for _, d := range desc {
		for _, a := range anc {
			if a.Contains(d) && (!parentOnly || a.Level+1 == d.Level) {
				out = append(out, d)
				break
			}
		}
	}
	SortRegions(out)
	return out
}

func regionsEqual(a, b []Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].NodeID != b[i].NodeID {
			return false
		}
	}
	return true
}

// TestSemiJoinsAgainstBruteForce runs the stack-based joins against the
// quadratic oracle on random trees.
func TestSemiJoinsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		// Random nested regions from a random tree shape.
		var regions []Region
		counter := int64(0)
		id := int64(1)
		var gen func(level int32)
		gen = func(level int32) {
			start := counter
			counter++
			myID := id
			id++
			kids := rng.Intn(3)
			if level > 4 {
				kids = 0
			}
			for k := 0; k < kids; k++ {
				gen(level + 1)
			}
			end := counter
			counter++
			regions = append(regions, Region{Start: start, End: end, Level: level, NodeID: myID})
		}
		gen(1)

		// Random subsets as ancestor/descendant candidate lists.
		var anc, desc []Region
		for _, r := range regions {
			if rng.Intn(2) == 0 {
				anc = append(anc, r)
			}
			if rng.Intn(2) == 0 {
				desc = append(desc, r)
			}
		}
		SortRegions(anc)
		SortRegions(desc)
		for _, parentOnly := range []bool{false, true} {
			gotA := StructuralSemiJoinAnc(append([]Region(nil), anc...), desc, parentOnly)
			wantA := bruteAnc(anc, desc, parentOnly)
			if !regionsEqual(gotA, wantA) {
				t.Fatalf("trial %d parentOnly=%v: anc join %v, want %v", trial, parentOnly, ids(gotA), ids(wantA))
			}
			gotD := StructuralSemiJoinDesc(anc, append([]Region(nil), desc...), parentOnly)
			wantD := bruteDesc(anc, desc, parentOnly)
			if !regionsEqual(gotD, wantD) {
				t.Fatalf("trial %d parentOnly=%v: desc join %v, want %v", trial, parentOnly, ids(gotD), ids(wantD))
			}
		}
	}
}

func ids(rs []Region) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.NodeID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSpaceNonZero(t *testing.T) {
	ix, _ := buildIndex(t, `<a><b/></a>`)
	if ix.Space() <= 0 {
		t.Fatalf("Space = %d", ix.Space())
	}
}

// TestCandidatesRejectShortKey: an element entry whose key stops after the
// label designator (no start position) is an error, not a slice panic.
func TestCandidatesRejectShortKey(t *testing.T) {
	dict := pathdict.NewDict()
	sym := dict.Intern("b")
	pool := storage.NewPool(storage.NewDisk(), 1<<20)
	tree, err := btree.BulkLoad(pool, "short", []btree.Entry{{Key: []byte{byte(sym >> 8), byte(sym)}, Val: make([]byte, 20)}})
	if err != nil {
		t.Fatal(err)
	}
	ix := &Index{tree: tree, dict: dict}
	if _, err := ix.Candidates(new(btree.PrefixScan), "b", func(Region) error { return nil }); err == nil {
		t.Fatal("scan over a 2-byte element key returned no error")
	}
}
