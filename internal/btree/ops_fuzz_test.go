package btree

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/storage"
)

// opsStems are the key stems FuzzTreeOps draws from: shared path-like
// heads, so pages carry long prefixes that an unrelated key collapses.
var opsStems = [][]byte{
	[]byte("site/regions/africa/item/"),
	[]byte("site/regions/asia/item/"),
	[]byte("site/people/person/"),
	[]byte("s"),
	bytes.Repeat([]byte("q"), 120),
}

type opsEntry struct{ key, val []byte }

func compareOpsEntries(a, b opsEntry) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	return bytes.Compare(a.val, b.val)
}

// FuzzTreeOps runs a program of inserts — runs of up to 16 duplicates of
// one key, so a duplicate run spans leaves — deletes, and CloneCOW
// freezes against a sorted-slice model in entry order (by key, duplicates
// by value: the default value order), through a pool of 12 frames, so
// pages are evicted, freed and their buffers recycled under the trees'
// feet. An inserted value starts with a hash of the insert's serial
// number, so it lands anywhere in its key's run. Every frozen version must
// keep scanning exactly its own model, in order, every delete must find
// exactly the entries the model has, and at each check every page of the
// current tree must be in shape (checkShape) and re-encode with an extra
// cell (insertCompacting) to the same bytes as decodePage + encodePage.
//
// Program bytes: op = b % 8; 0–3 insert a run (key byte, run length),
// 4–5 delete (entry index, modulo the model's length; an index of twice
// that or more deletes an absent entry), 6 freeze, 7 check. width sets
// the value size.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 3, 15, 0, 3, 15, 1, 4, 15, 4, 5, 7, 6, 4, 0, 4, 9, 0, 2, 2, 7, 6, 5, 1, 5, 200, 7}, uint8(150))
	f.Add([]byte{2, 0, 15, 2, 1, 15, 2, 2, 15, 6, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3, 7, 0, 4, 8, 7}, uint8(255))
	f.Add([]byte{1, 1, 2, 6, 1, 2, 2, 6, 1, 3, 2, 6, 4, 0, 4, 0, 4, 0, 7}, uint8(0))
	// One key's run of 480 wide entries spans many children of the root;
	// deletes inside it, then under a freeze inserts and deletes again.
	f.Add(runSeed(7, 30, 20), uint8(255))
	// The same with a neighbouring key's run beside it and narrower
	// values, so the run shares its first and last leaves.
	f.Add(append([]byte{0, 2, 15, 0, 2, 15}, runSeed(2, 24, 12)...), uint8(120))
	// A tree several times the pool: pages written home on eviction are
	// fetched again — on the in-memory file's own bytes — mutated in
	// place, and read again after their next write-home.
	f.Add(evictSeed(40, 8), uint8(255))
	// A run of 2,880 wide entries, three levels high: internal splits cut
	// inside the run and push up separators carrying values.
	f.Add(runSeed(7, 180, 10), uint8(255))
	f.Fuzz(func(t *testing.T, prog []byte, width uint8) {
		if len(prog) > 600 {
			prog = prog[:600]
		}
		dev := storage.NewMemFileDisk()
		pool := storage.NewPool(dev, 12*storage.PageSize)
		tr, err := New(pool, "ops")
		if err != nil {
			t.Fatal(err)
		}
		type version struct {
			tree  *Tree
			model []opsEntry
		}
		var frozen []version
		var model []opsEntry
		serial := 0
		arg := func(i int) byte {
			if i < len(prog) {
				return prog[i]
			}
			return 0
		}
		for pc := 0; pc < len(prog); pc++ {
			switch op := prog[pc] % 8; {
			case op <= 3:
				k, run := arg(pc+1), int(arg(pc+2)%16)+1
				pc += 2
				key := append(slices.Clone(opsStems[int(k)%len(opsStems)]), k>>3, k)
				for i := 0; i < run; i++ {
					serial++
					h := uint16(serial * 40503) // odd multiplier: distinct below 65,536
					val := append([]byte{byte(h >> 8), byte(h)}, bytes.Repeat([]byte{k}, int(width)+int(k))...)
					if err := tr.Insert(key, val); err != nil {
						t.Fatalf("insert: %v", err)
					}
					e := opsEntry{key, val}
					i, _ := slices.BinarySearchFunc(model, e, compareOpsEntries)
					model = slices.Insert(model, i, e)
				}
			case op <= 5:
				idx := int(arg(pc + 1))
				pc++
				if len(model) == 0 || idx >= 2*len(model) {
					ok, err := tr.Delete(opsStems[0], []byte("absent"))
					if err != nil || ok {
						t.Fatalf("delete of an absent entry = %v, %v", ok, err)
					}
					continue
				}
				e := model[idx%len(model)]
				ok, err := tr.Delete(e.key, e.val)
				if err != nil || !ok {
					t.Fatalf("delete of a present entry = %v, %v", ok, err)
				}
				model = slices.Delete(model, idx%len(model), idx%len(model)+1)
			case op == 6:
				frozen = append(frozen, version{tr, slices.Clone(model)})
				tr = tr.CloneCOW(storage.PageID(dev.NumPages()))
			default:
				checkOpsTree(t, tr, model)
				checkCompactingImages(t, tr, pool, arg(pc+1), width)
			}
		}
		checkOpsTree(t, tr, model)
		for i, v := range frozen {
			checkOpsTree(t, v.tree, v.model)
			if i == len(frozen)-1 {
				checkCompactingImages(t, v.tree, pool, 7, width)
			}
		}
	})
}

// runSeed is a FuzzTreeOps program: runs inserts of 16 duplicates of key
// k, then dels deletes spread over the first 256 entries, a freeze and a
// check, then four rounds of another 16 duplicates and a delete, and a
// final check.
func runSeed(k byte, runs, dels int) []byte {
	var prog []byte
	for i := 0; i < runs; i++ {
		prog = append(prog, 0, k, 15)
	}
	for i := 0; i < dels; i++ {
		prog = append(prog, 4, byte(37*i+11))
	}
	prog = append(prog, 6, 7)
	for i := 0; i < 4; i++ {
		prog = append(prog, 1, k, 15, 5, byte(60*i+29))
	}
	return append(prog, 7)
}

// evictSeed is a FuzzTreeOps program: runs of 16 duplicates of each of
// keys keys, then two rounds of a run of 4 more into each of the first
// again keys, each run followed by a delete near where the key's entries
// start, and each round by a check, which reads every page.
func evictSeed(keys, again byte) []byte {
	var prog []byte
	for k := byte(0); k < keys; k++ {
		prog = append(prog, 0, k, 15)
	}
	for round := 0; round < 2; round++ {
		for k := byte(0); k < again; k++ {
			prog = append(prog, 1, k, 3, 4, 16*k+byte(round))
		}
		prog = append(prog, 7, byte(round))
	}
	return prog
}

// checkOpsTree scans tr: its entries must be model's, in order, and its
// pages in shape (checkShape).
func checkOpsTree(t *testing.T, tr *Tree, model []opsEntry) {
	t.Helper()
	checkShape(t, tr)
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []opsEntry
	for ; it.Valid(); it.Next() {
		e := opsEntry{slices.Clone(it.Key()), it.Value()}
		if len(got) >= len(model) || compareOpsEntries(e, model[len(got)]) != 0 {
			t.Fatalf("scan differs from the model at entry %d (model has %d)", len(got), len(model))
		}
		got = append(got, e)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan has %d entries, model %d", len(got), len(model))
	}
	if tr.Stats().Entries != int64(len(model)) {
		t.Fatalf("tree counts %d entries, model %d", tr.Stats().Entries, len(model))
	}
}

// checkCompactingImages inserts a cell drawn from k — on an internal page a
// separator, valued for odd k — into a copy of every page of tr, at its
// search position, both by insertCompacting and by
// decodePage + encodePage: both must agree on whether the cell fits, and
// when it does, on every byte of the page.
func checkCompactingImages(t *testing.T, tr *Tree, pool *storage.Pool, k, width uint8) {
	t.Helper()
	key := append(slices.Clone(opsStems[int(k)%len(opsStems)]), k>>2, k)
	val := bytes.Repeat([]byte{k}, int(width)/2)
	err := tr.Walk(func(id storage.PageID) error {
		pg, err := pool.Fetch(id)
		if err != nil {
			return err
		}
		page := slices.Clone(pg.Data)
		pool.Unpin(pg, false)

		v, child := val, storage.InvalidPage
		if pageType(page) != pageLeaf {
			child = storage.PageID(k)
			if k%2 == 0 {
				v = nil // a key-only separator; odd k inserts a valued one
			}
		}
		pos := tr.search(page, key, v, false)
		got := slices.Clone(page)
		fit := insertCompacting(got, make([]byte, storage.PageSize), pos, key, v, child)

		pc, err := decodePage(page)
		if err != nil {
			return err
		}
		pc.entries = slices.Insert(pc.entries, pos, entry{key: key, val: v, child: child})
		if fits(&pc) != fit {
			t.Fatalf("page %d: insertCompacting fit %v, decode + encode %v", id, fit, !fit)
		}
		if !fit {
			if !bytes.Equal(got, page) {
				t.Fatalf("page %d: a refused insertCompacting changed the page", id)
			}
			return nil
		}
		want := make([]byte, storage.PageSize)
		if err := encodePage(&pc, want); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d (%d cells, leaf %v): insertCompacting image differs from decode + encode", id, len(pc.entries), pc.leaf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkShape walks every page of tr, whose (key, value) pairs must be
// distinct: every leaf sits at the tree's height, and the entries under
// each child of an internal page — separators and leaf entries — lie in
// [its separator, the next one) in entry order. A key-only separator holds
// its key's least value, so no entry with that key may sit to its left.
func checkShape(t *testing.T, tr *Tree) {
	t.Helper()
	type bound struct {
		key, val []byte
		ok       bool // false: unbounded
	}
	cmp := func(key, val []byte, b bound) int {
		if c := bytes.Compare(key, b.key); c != 0 {
			return c
		}
		return tr.compareVal(val, b.val)
	}
	var walk func(id storage.PageID, height int, lo, hi bound)
	walk = func(id storage.PageID, height int, lo, hi bound) {
		pg, err := tr.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := decodePage(pg.Data)
		tr.pool.Unpin(pg, false)
		if err != nil {
			t.Fatal(err)
		}
		if pc.leaf != (height == 1) {
			t.Fatalf("page %d: leaf %v at height %d", id, pc.leaf, height)
		}
		for i, e := range pc.entries {
			if lo.ok && cmp(e.key, e.val, lo) < 0 || hi.ok && cmp(e.key, e.val, hi) >= 0 {
				t.Fatalf("page %d (leaf %v): entry %d (%q) lies outside its separators [%q, %q)", id, pc.leaf, i, e.key, lo.key, hi.key)
			}
		}
		if pc.leaf {
			return
		}
		child, bounds := pc.aux, lo
		for _, e := range pc.entries {
			next := bound{e.key, e.val, true}
			walk(child, height-1, bounds, next)
			child, bounds = e.child, next
		}
		walk(child, height-1, bounds, hi)
	}
	walk(tr.root, tr.height, bound{}, bound{})
}
