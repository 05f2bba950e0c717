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
// freezes against a sorted-slice model, through a pool of 12 frames, so
// pages are evicted, freed and their buffers recycled under the trees'
// feet. Every frozen version must keep reading its own model, every
// delete must find exactly the entries the model has, and at each check
// every page of the current tree must re-encode with an extra cell
// (insertCompacting) to the same bytes as decodePage + encodePage.
//
// Program bytes: op = b % 8; 0–3 insert a run (key byte, run length),
// 4–5 delete (entry index, modulo the model's length; an index of twice
// that or more deletes an absent entry), 6 freeze, 7 check. width sets
// the value size.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 3, 15, 0, 3, 15, 1, 4, 15, 4, 5, 7, 6, 4, 0, 4, 9, 0, 2, 2, 7, 6, 5, 1, 5, 200, 7}, uint8(150))
	f.Add([]byte{2, 0, 15, 2, 1, 15, 2, 2, 15, 6, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3, 7, 0, 4, 8, 7}, uint8(255))
	f.Add([]byte{1, 1, 2, 6, 1, 2, 2, 6, 1, 3, 2, 6, 4, 0, 4, 0, 4, 0, 7}, uint8(0))
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
					val := append([]byte{byte(serial >> 8), byte(serial)}, bytes.Repeat([]byte{k}, int(width)+int(k))...)
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

// checkOpsTree scans tr: keys in order, the entries those of model.
func checkOpsTree(t *testing.T, tr *Tree, model []opsEntry) {
	t.Helper()
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []opsEntry
	for ; it.Valid(); it.Next() {
		key := slices.Clone(it.Key())
		if len(got) > 0 && bytes.Compare(got[len(got)-1].key, key) > 0 {
			t.Fatalf("scan out of order at entry %d", len(got))
		}
		got = append(got, opsEntry{key, it.Value()})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, compareOpsEntries)
	if !slices.EqualFunc(got, model, func(a, b opsEntry) bool { return compareOpsEntries(a, b) == 0 }) {
		t.Fatalf("scan has %d entries, model %d, or they differ", len(got), len(model))
	}
	if tr.Stats().Entries != int64(len(model)) {
		t.Fatalf("tree counts %d entries, model %d", tr.Stats().Entries, len(model))
	}
}

// checkCompactingImages inserts a cell drawn from k into a copy of every
// page of tr, at its search position, both by insertCompacting and by
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

		pos := searchCell(page, key)
		v, child := val, storage.InvalidPage
		if pageType(page) != pageLeaf {
			v, child = nil, storage.PageID(k)
		}
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
