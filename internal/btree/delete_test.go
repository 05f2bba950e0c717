package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestDeleteBasic(t *testing.T) {
	tr, err := New(newPool(t, 1<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := tr.Insert([]byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Delete([]byte("b"), []byte("vb"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, found, _ := tr.Get([]byte("b")); found {
		t.Fatalf("b still present")
	}
	if _, found, _ := tr.Get([]byte("a")); !found {
		t.Fatalf("a lost")
	}
	// Wrong value: no-op.
	ok, err = tr.Delete([]byte("a"), []byte("nope"))
	if err != nil || ok {
		t.Fatalf("Delete wrong value = %v, %v", ok, err)
	}
	// Absent key: no-op.
	ok, err = tr.Delete([]byte("zzz"), nil)
	if err != nil || ok {
		t.Fatalf("Delete absent = %v, %v", ok, err)
	}
	if st := tr.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestDeleteAmongDuplicatesAcrossLeaves(t *testing.T) {
	tr, err := New(newPool(t, 4<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2500 // enough duplicates to span several leaves
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte("dup"), []byte(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a value that lives deep in the duplicate run.
	target := []byte(fmt.Sprintf("%06d", n-3))
	ok, err := tr.Delete([]byte("dup"), target)
	if err != nil || !ok {
		t.Fatalf("Delete deep duplicate = %v, %v", ok, err)
	}
	// Count the remainder.
	it, err := tr.Seek([]byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for ; it.Valid() && bytes.Equal(it.Key(), []byte("dup")); it.Next() {
		if bytes.Equal(it.ValueRef(), target) {
			t.Fatalf("deleted value still present")
		}
		count++
	}
	if count != n-1 {
		t.Fatalf("count = %d, want %d", count, n-1)
	}
}

// TestInsertDeleteModel interleaves random inserts and deletes against a
// slice model, verifying full scans agree throughout.
func TestInsertDeleteModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr, err := New(newPool(t, 8<<20), "model")
	if err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, v string }
	var model []kv
	verify := func() {
		sorted := append([]kv(nil), model...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].k < sorted[j].k })
		it, err := tr.Scan()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		i := 0
		for ; it.Valid(); it.Next() {
			if i >= len(sorted) || string(it.Key()) != sorted[i].k {
				t.Fatalf("scan diverged at %d", i)
			}
			i++
		}
		if i != len(sorted) {
			t.Fatalf("scan has %d entries, model %d", i, len(sorted))
		}
	}
	for step := 0; step < 3000; step++ {
		if len(model) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(model))
			e := model[i]
			model = append(model[:i], model[i+1:]...)
			ok, err := tr.Delete([]byte(e.k), []byte(e.v))
			if err != nil || !ok {
				t.Fatalf("step %d: Delete(%q,%q) = %v, %v", step, e.k, e.v, ok, err)
			}
		} else {
			k := fmt.Sprintf("k%03d", rng.Intn(200))
			v := fmt.Sprintf("v%06d", step)
			if err := tr.Insert([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model = append(model, kv{k, v})
		}
		if step%500 == 0 {
			verify()
		}
	}
	verify()
}

// TestDuplicateRunOpsAreLogarithmic builds one key's duplicate run of
// 120,000 entries, three levels high, then deletes and inserts at random
// places in it: every operation must fetch at most 2·height + 2 pages — one
// descent, a binary search per level over separators that carry the run's
// values, plus the pages a split or an unlink writes on the way back up —
// not every leaf ahead of its entry, nor the first entries of the children
// the run spans. The run must end up in value order and in shape, with
// absent entries not found.
func TestDuplicateRunOpsAreLogarithmic(t *testing.T) {
	const n = 120000
	key := []byte("site/regions/item/")
	val := func(i int) []byte {
		v := make([]byte, 96) // wide values: few cells per leaf, many leaves
		binary.BigEndian.PutUint64(v, uint64(i))
		return v
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: key, Val: val(2 * i)} // odd values are free
	}
	pool := newPool(t, 64<<20)
	tr, err := BulkLoad(pool, "run", entries)
	if err != nil {
		t.Fatal(err)
	}
	height := tr.Stats().Height
	if height < 3 {
		t.Fatalf("height %d, want a run spanning internal nodes (>= 3)", height)
	}
	checkShape(t, tr)
	bound := int64(2*height + 2)
	fetches := func(op func() (bool, error)) (int64, bool) {
		t.Helper()
		before := pool.Stats().Fetches
		ok, err := op()
		if err != nil {
			t.Fatal(err)
		}
		return pool.Stats().Fetches - before, ok
	}
	rng := rand.New(rand.NewSource(45))
	live := make(map[int]bool, n+1000)
	for i := 0; i < n; i++ {
		live[2*i] = true
	}
	worst := int64(0)
	for step := 0; step < 2000; step++ {
		v := rng.Intn(2 * n)
		var got int64
		var ok bool
		if live[v] {
			got, ok = fetches(func() (bool, error) { return tr.Delete(key, val(v)) })
			if !ok {
				t.Fatalf("step %d: Delete(%d) missed a present entry", step, v)
			}
			delete(live, v)
		} else if rng.Intn(2) == 0 {
			got, ok = fetches(func() (bool, error) { return tr.Delete(key, val(v)) })
			if ok {
				t.Fatalf("step %d: Delete(%d) found an absent entry", step, v)
			}
		} else {
			got, _ = fetches(func() (bool, error) { return true, tr.Insert(key, val(v)) })
			live[v] = true
		}
		worst = max(worst, got)
		if got > bound {
			t.Fatalf("step %d: %d fetches, bound %d (height %d)", step, got, bound, height)
		}
	}
	t.Logf("height %d: at most %d fetches per operation (bound %d)", height, worst, bound)
	checkShape(t, tr)

	want := make([]int, 0, len(live))
	for v := range live {
		want = append(want, v)
	}
	sort.Ints(want)
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for ; it.Valid(); it.Next() {
		if i >= len(want) || !bytes.Equal(it.ValueRef(), val(want[i])) {
			t.Fatalf("scan diverges from the model at entry %d", i)
		}
		i++
	}
	if i != len(want) || tr.Stats().Entries != int64(len(want)) {
		t.Fatalf("scan has %d entries, tree counts %d, model %d", i, tr.Stats().Entries, len(want))
	}
}

// TestInternalSplitInsideRun inserts one key's run of wide values in random
// order until it spans internal pages (height >= 3), so internal splits cut
// inside the run and push up separators carrying values, then deletes the
// run in another random order: every entry must be found, and the tree
// stay in shape.
func TestInternalSplitInsideRun(t *testing.T) {
	const n = 6000
	key := []byte("site/regions/item/")
	val := func(i int) []byte {
		v := make([]byte, 200) // wide values: wide separators, low fanout
		binary.BigEndian.PutUint64(v, uint64(i))
		return v
	}
	tr, err := New(newPool(t, 64<<20), "run")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(key, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Stats().Height; h < 3 {
		t.Fatalf("height %d, want a run spanning internal pages (>= 3)", h)
	}
	// Every separator of the root was pushed up by an internal split, and
	// every cut fell inside the run.
	pg, err := tr.fetch(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pageNumCells(pg.Data); i++ {
		if _, v, _ := internalCell(pg.Data, i); len(v) == 0 {
			t.Fatalf("root separator %d carries no value", i)
		}
	}
	tr.pool.Unpin(pg, false)
	checkShape(t, tr)
	for j, i := range rng.Perm(n) {
		if ok, err := tr.Delete(key, val(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
		if j%1000 == 0 {
			checkShape(t, tr)
		}
	}
	if e := tr.Stats().Entries; e != 0 {
		t.Fatalf("%d entries left", e)
	}
}

// TestDeleteExactDuplicates: copies of one (key, value) pair span leaves,
// so splits cut between copies and a separator equals the copies before
// it; every copy must still be found and deleted, and the neighbours on
// both sides kept — with a wide value and with the empty one.
func TestDeleteExactDuplicates(t *testing.T) {
	for _, val := range [][]byte{bytes.Repeat([]byte("v"), 100), nil} {
		tr, err := New(newPool(t, 8<<20), "copies")
		if err != nil {
			t.Fatal(err)
		}
		const copies = 3000
		others := []Entry{{[]byte("a"), val}, {[]byte("dup"), []byte{0}}, {[]byte("dup"), []byte("w")}, {[]byte("z"), val}}
		for i := 0; i < copies; i++ {
			if i%1000 == 0 {
				e := others[i/1000]
				if err := tr.Insert(e.Key, e.Val); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Insert([]byte("dup"), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Insert(others[3].Key, others[3].Val); err != nil {
			t.Fatal(err)
		}
		if tr.Stats().Height < 2 {
			t.Fatalf("value %d bytes: the copies fit one leaf", len(val))
		}
		for i := 0; i < copies; i++ {
			if ok, err := tr.Delete([]byte("dup"), val); err != nil || !ok {
				t.Fatalf("value %d bytes: Delete of copy %d = %v, %v", len(val), i, ok, err)
			}
		}
		if ok, err := tr.Delete([]byte("dup"), val); err != nil || ok {
			t.Fatalf("value %d bytes: Delete past the last copy = %v, %v", len(val), ok, err)
		}
		it, err := tr.Scan()
		if err != nil {
			t.Fatal(err)
		}
		var n int
		for ; it.Valid(); it.Next() {
			n++
		}
		it.Close()
		if n != len(others) {
			t.Fatalf("value %d bytes: %d entries left, want the %d neighbours", len(val), n, len(others))
		}
	}
}
