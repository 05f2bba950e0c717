package btree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// dumpAll scans the whole tree into sorted (key, val) strings.
func dumpAll(t *testing.T, tr *Tree) []string {
	t.Helper()
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []string
	for ; it.Valid(); it.Next() {
		out = append(out, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCloneCOWIsolation: a clone's inserts and deletes must never change
// what the original handle reads — the page-level foundation of snapshot
// isolation.
func TestCloneCOWIsolation(t *testing.T) {
	dev := storage.NewDisk()
	pool := storage.NewPool(dev, 4<<20)
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(2000))
		if err := tr.Insert([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := dumpAll(t, tr)

	frontier := storage.PageID(dev.NumPages())
	clone := tr.CloneCOW(frontier)

	// Churn the clone hard enough to split pages and cross leaves.
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			if err := clone.Insert([]byte(k), []byte(fmt.Sprintf("new%d", i))); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := clone.Delete([]byte(k), []byte(fmt.Sprintf("v%d", rng.Intn(3000)))); err != nil {
				t.Fatal(err)
			}
		}
	}

	after := dumpAll(t, tr)
	if !sameStrings(before, after) {
		t.Fatalf("original changed under COW clone: %d entries before, %d after", len(before), len(after))
	}
}

// TestCloneCOWContents: the clone must behave exactly like an in-place
// mutated tree — verified against a plain map oracle, across multiple
// clone generations (as successive engine snapshots produce).
func TestCloneCOWContents(t *testing.T) {
	dev := storage.NewDisk()
	pool := storage.NewPool(dev, 4<<20)
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	// The tree is a multiset (duplicate keys allowed), so the oracle maps
	// each key to its bag of values.
	oracle := map[string][]string{}
	size := 0
	rng := rand.New(rand.NewSource(2))
	put := func(tree *Tree, k, v string) {
		if err := tree.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = append(oracle[k], v)
		size++
	}
	del := func(tree *Tree, k string) {
		vals := oracle[k]
		var v string
		if len(vals) > 0 {
			v = vals[rng.Intn(len(vals))]
		}
		ok, err := tree.Delete([]byte(k), []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(vals) > 0) {
			t.Fatalf("Delete(%q, %q) = %v, oracle has %d values", k, v, ok, len(vals))
		}
		if ok {
			for i, ov := range vals {
				if ov == v {
					oracle[k] = append(vals[:i], vals[i+1:]...)
					break
				}
			}
			size--
		}
	}
	check := func(tree *Tree) {
		t.Helper()
		want := make([]string, 0, size)
		for k, vals := range oracle {
			for _, v := range vals {
				want = append(want, k+"="+v)
			}
		}
		sort.Strings(want)
		got := dumpAll(t, tree)
		sort.Strings(got) // values within one key's duplicate run are unordered
		if !sameStrings(got, want) {
			t.Fatalf("tree/oracle divergence: %d vs %d entries", len(got), len(want))
		}
		if int64(size) != tree.Stats().Entries {
			t.Fatalf("entry count %d, want %d", tree.Stats().Entries, size)
		}
	}

	for i := 0; i < 1500; i++ {
		put(tr, fmt.Sprintf("k%06d", rng.Intn(5000)), fmt.Sprintf("v%d", i))
	}
	check(tr)

	cur := tr
	for gen := 0; gen < 5; gen++ {
		cur = cur.CloneCOW(storage.PageID(dev.NumPages()))
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("k%06d", rng.Intn(5000))
			if rng.Intn(2) == 0 {
				put(cur, k, fmt.Sprintf("g%dv%d", gen, i))
			} else {
				del(cur, k)
			}
		}
		check(cur)
	}
}

// TestCloneCOWDuplicateRunAcrossLeaves: deleting a specific value deep
// inside a duplicate run that spans several leaves must work through the
// COW path (it exercises the descend-and-continue scan, not the leaf
// chain).
func TestCloneCOWDuplicateRunAcrossLeaves(t *testing.T) {
	dev := storage.NewDisk()
	pool := storage.NewPool(dev, 4<<20)
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	// One key, enough distinct values to fill multiple pages.
	pad := bytes.Repeat([]byte("x"), 200)
	const dups = 400
	for i := 0; i < dups; i++ {
		val := append([]byte(fmt.Sprintf("val-%05d-", i)), pad...)
		if err := tr.Insert([]byte("dup"), val); err != nil {
			t.Fatal(err)
		}
	}
	clone := tr.CloneCOW(storage.PageID(dev.NumPages()))
	for _, i := range []int{dups - 1, dups / 2, 0, 7} {
		val := append([]byte(fmt.Sprintf("val-%05d-", i)), pad...)
		ok, err := clone.Delete([]byte("dup"), val)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("duplicate %d not found through COW scan", i)
		}
	}
	if got := clone.Stats().Entries; got != dups-4 {
		t.Fatalf("clone entries = %d, want %d", got, dups-4)
	}
	if got := tr.Stats().Entries; got != dups {
		t.Fatalf("original entries = %d, want %d", got, dups)
	}
	n, err := tr.ScanPrefix(&PrefixScan{Prefix: []byte("dup")}, func(_, _ []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != dups {
		t.Fatalf("original scan sees %d duplicates, want %d", n, dups)
	}
}

// TestCloneCOWConcurrentReaders runs the engine's whole handle life cycle
// on one tree, with no latch anywhere: readers of the frozen original —
// full scans, one reused PrefixScan per reader through ScanPrefix, Meta,
// Stats and Walk — must always observe the exact snapshot while a clone
// inserts and deletes, hands over its retired pages (TakeRetired), and is
// then abandoned (TakeFresh), its fresh pages freed and immediately reused
// by another tree. Run with -race to catch torn page accesses.
func TestCloneCOWConcurrentReaders(t *testing.T) {
	dev := storage.NewDisk()
	pool := storage.NewPool(dev, 1<<20) // small pool: forces faults + evictions
	tr, err := New(pool, "t")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpAll(t, tr)
	prefixes := []string{"k0000", "k0001", "k00199", "k0019", "k1"}
	wantRows := map[string]int{}
	for _, p := range prefixes {
		for _, kv := range want {
			if strings.HasPrefix(kv, p) {
				wantRows[p]++
			}
		}
	}
	walk := func() (map[storage.PageID]bool, error) {
		pages := map[storage.PageID]bool{}
		err := tr.Walk(func(id storage.PageID) error { pages[id] = true; return nil })
		return pages, err
	}
	wantPages, err := walk()
	if err != nil {
		t.Fatal(err)
	}
	wantMeta, wantStats := tr.Meta(), tr.Stats()
	frontier := storage.PageID(dev.NumPages())
	clone := tr.CloneCOW(frontier)

	var wg sync.WaitGroup
	var writerDone atomic.Bool
	errs := make(chan error, 4)
	read := func(ps *PrefixScan) error {
		it, err := tr.Scan()
		if err != nil {
			return err
		}
		i := 0
		for ; it.Valid(); it.Next() {
			kv := string(it.Key()) + "=" + string(it.Value())
			if i >= len(want) || kv != want[i] {
				it.Close()
				return fmt.Errorf("reader saw %q at %d, want %q", kv, i, want[i])
			}
			i++
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return err
		}
		if i != len(want) {
			return fmt.Errorf("reader saw %d entries, want %d", i, len(want))
		}
		for _, p := range prefixes {
			ps.Prefix = append(ps.Prefix[:0], p...)
			n, err := tr.ScanPrefix(ps, func(key, _ []byte) error {
				if !bytes.HasPrefix(key, ps.Prefix) {
					return fmt.Errorf("ScanPrefix(%q) handed over %q", p, key)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if n != wantRows[p] {
				return fmt.Errorf("ScanPrefix(%q) = %d rows, want %d", p, n, wantRows[p])
			}
		}
		if m, s := tr.Meta(), tr.Stats(); m != wantMeta || s != wantStats {
			return fmt.Errorf("original's Meta/Stats moved: %+v %+v, want %+v %+v", m, s, wantMeta, wantStats)
		}
		pages, err := walk()
		if err != nil {
			return err
		}
		if !maps.Equal(pages, wantPages) {
			return fmt.Errorf("Walk reached %d pages, want the original %d", len(pages), len(wantPages))
		}
		return nil
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ps PrefixScan // reused across every probe of this reader
			for pass := 0; pass < 3 || !writerDone.Load(); pass++ {
				if err := read(&ps); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("k%06d", rng.Intn(3000))
			if rng.Intn(2) == 0 {
				if err := clone.Insert([]byte(k), []byte("w")); err != nil {
					errs <- err
					return
				}
			} else if _, err := clone.Delete([]byte(k), []byte(fmt.Sprintf("v%d", rng.Intn(2000)))); err != nil {
				errs <- err
				return
			}
		}
		// Retired pages are originals the readers may still be on: they are
		// collected, never freed here. Fresh pages only the clone reached:
		// an abandoned writer frees them at once, and reusing them must not
		// disturb a reader.
		retired := clone.TakeRetired()
		fresh := clone.TakeFresh()
		if len(retired) == 0 || len(fresh) == 0 {
			errs <- fmt.Errorf("churn retired %d and allocated %d pages", len(retired), len(fresh))
			return
		}
		for _, id := range retired {
			if id >= frontier || !wantPages[id] {
				errs <- fmt.Errorf("retired page %d is not one of the original's", id)
				return
			}
		}
		for _, id := range fresh {
			if wantPages[id] {
				errs <- fmt.Errorf("fresh page %d is reachable from the original", id)
				return
			}
			if err := pool.Free(id); err != nil {
				errs <- err
				return
			}
		}
		reuse, err := New(pool, "reuse")
		for i := 0; err == nil && i < 2000; i++ {
			err = reuse.Insert([]byte(fmt.Sprintf("r%06d", i)), bytes.Repeat([]byte("x"), 64))
		}
		if err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
