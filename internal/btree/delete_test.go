package btree

import (
	"bytes"
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
