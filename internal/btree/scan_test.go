package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/storage"
)

// scanRow is one (key, value) pair a scan yielded, copied out.
type scanRow struct{ key, val string }

// prefixRows is the model of a prefix scan: a full Scan of tr filtered by
// bytes.HasPrefix.
func prefixRows(tr *Tree, prefix []byte) ([]scanRow, error) {
	it, err := tr.Scan()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []scanRow
	for ; it.Valid(); it.Next() {
		if bytes.HasPrefix(it.Key(), prefix) {
			out = append(out, scanRow{string(it.Key()), string(it.ValueRef())})
		}
	}
	return out, it.Err()
}

// errStopScan is the row callback's own error in checkScanPrefix.
var errStopScan = errors.New("stop scan")

// checkScanPrefix scans tr for prefix through ps and compares the result
// with the model: the same rows in the same order, and a row count equal
// to the number of callbacks. A callback error must stop the scan at the
// row that returned it — first, middle and last — and come back as is.
func checkScanPrefix(tr *Tree, ps *PrefixScan, prefix []byte) error {
	want, err := prefixRows(tr, prefix)
	if err != nil {
		return fmt.Errorf("model scan: %w", err)
	}
	ps.Prefix = append(ps.Prefix[:0], prefix...)
	var got []scanRow
	n, err := tr.ScanPrefix(ps, func(key, val []byte) error {
		got = append(got, scanRow{string(key), string(val)})
		return nil
	})
	if err != nil {
		return fmt.Errorf("ScanPrefix(%q): %w", prefix, err)
	}
	if n != len(got) {
		return fmt.Errorf("ScanPrefix(%q) reports %d rows, called back %d times", prefix, n, len(got))
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("ScanPrefix(%q): %d rows, model %d; first difference at row %d", prefix, len(got), len(want), i)
	}
	if len(want) == 0 {
		return nil
	}
	for _, stopAt := range []int{1, len(want)/2 + 1, len(want)} {
		calls := 0
		n, err := tr.ScanPrefix(ps, func(_, _ []byte) error {
			if calls++; calls == stopAt {
				return errStopScan
			}
			return nil
		})
		if n != stopAt || calls != stopAt || err != errStopScan {
			return fmt.Errorf("ScanPrefix(%q) stopped at row %d: %d rows, %d calls, err %v", prefix, stopAt, n, calls, err)
		}
	}
	return nil
}

// scanModelKeys returns n random keys under a few nested stems of 0 to 400
// bytes, so that leaves share prefixes of very different lengths, each
// followed by a short tail over a four-letter alphabet (duplicates occur).
func scanModelKeys(rng *rand.Rand, n int) [][]byte {
	long := bytes.Repeat([]byte("stem/"), 80)
	stems := [][]byte{nil, long[:7], long[:40], long[:41], long[:150], long[:400], []byte("z")}
	keys := make([][]byte, n)
	for i := range keys {
		k := append([]byte(nil), stems[rng.Intn(len(stems))]...)
		for j := rng.Intn(9); j > 0; j-- {
			k = append(k, byte('a'+rng.Intn(4)))
		}
		keys[i] = k
	}
	return keys
}

// scanModelProbes returns prefixes that probe tr's leaves at every edge:
// the empty prefix and one below and one above every key; for sampled
// leaves, prefixes shorter than and equal to the page prefix, one that
// straddles it (a key cut inside its suffix), a whole key (the range ends
// mid-leaf), and two that match nothing; for every leaf, a key cut at a
// random length, which when short spans many leaves; and one longer than
// every key.
func scanModelProbes(t *testing.T, tr *Tree, rng *rand.Rand) [][]byte {
	t.Helper()
	probes := [][]byte{nil, {0x00}, {0xff}}
	var ids []storage.PageID
	if err := tr.Walk(func(id storage.PageID) error { ids = append(ids, id); return nil }); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, id := range ids {
		pg, err := tr.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		d := pg.Data
		if n := pageNumCells(d); pageType(d) == pageLeaf && n > 0 {
			pp := append([]byte(nil), pagePrefix(d)...)
			suffix, _ := leafCell(d, rng.Intn(n))
			key := append(append([]byte(nil), pp...), suffix...)
			longest = max(longest, len(key))
			if rng.Intn(4) == 0 {
				probes = append(probes, pp, key, append(key, 0x00), append(pp, 0xff))
				if len(pp) > 0 {
					probes = append(probes, pp[:len(pp)-1], pp[:len(pp)/2])
				}
				if len(suffix) > 0 {
					probes = append(probes, key[:len(pp)+1+rng.Intn(len(suffix))])
				}
			}
			probes = append(probes, key[:rng.Intn(len(key)+1)])
		}
		tr.pool.Unpin(pg, false)
	}
	return append(probes, bytes.Repeat([]byte("s"), longest+1))
}

// TestScanPrefixModel drives ScanPrefix directly against a filtered full
// Scan on trees built by inserts, by BulkLoad (also through a one-page
// pool), by inserts then deletes that empty whole leaves, and on both
// sides of a CloneCOW that diverged by inserts and deletes.
func TestScanPrefixModel(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	keys := scanModelKeys(rng, 3000)
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: k, Val: []byte(fmt.Sprint(i))}
	}
	// Entry order: by key, duplicates by value (the default value order),
	// so the bulk-loaded trees take deletes.
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, func(a, b Entry) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Val, b.Val)
	})
	inserted := func(t *testing.T, pool *storage.Pool) *Tree {
		tr, err := New(pool, "inserts")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := tr.Insert(e.Key, e.Val); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	bulk := func(t *testing.T, pool *storage.Pool) *Tree {
		tr, err := BulkLoad(pool, "bulk", sorted)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	del := func(t *testing.T, tr *Tree, es []Entry) {
		for _, e := range es {
			if ok, err := tr.Delete(e.Key, e.Val); err != nil || !ok {
				t.Fatalf("Delete(%q) = %v, %v", e.Key, ok, err)
			}
		}
	}

	type built struct {
		name string
		tr   *Tree
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) []built
	}{
		{"inserts", func(t *testing.T) []built {
			return []built{{"", inserted(t, newPool(t, 8<<20))}}
		}},
		{"bulk", func(t *testing.T) []built {
			return []built{{"", bulk(t, newPool(t, 8<<20))}}
		}},
		{"bulk/one-page-pool", func(t *testing.T) []built {
			return []built{{"", bulk(t, newPool(t, storage.PageSize))}}
		}},
		{"deletes", func(t *testing.T) []built {
			tr := inserted(t, newPool(t, 8<<20))
			// A run of a third of the keys empties whole leaves, which
			// are unlinked; every seventh of the rest thins the others.
			n := len(sorted)
			del(t, tr, sorted[n/3:2*n/3])
			for i := 0; i < n/3; i += 7 {
				del(t, tr, sorted[i:i+1])
			}
			return []built{{"", tr}}
		}},
		{"cow", func(t *testing.T) []built {
			dev := storage.NewMemFileDisk()
			tr := bulk(t, storage.NewPool(dev, 8<<20))
			clone := tr.CloneCOW(storage.PageID(dev.NumPages()))
			del(t, clone, sorted[len(sorted)/2:])
			for _, k := range scanModelKeys(rng, 500) {
				if err := clone.Insert(k, []byte("new")); err != nil {
					t.Fatal(err)
				}
			}
			return []built{{"original/", tr}, {"clone/", clone}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range tc.build(t) {
				var ps PrefixScan
				for _, p := range scanModelProbes(t, b.tr, rng) {
					if err := checkScanPrefix(b.tr, &ps, p); err != nil {
						t.Fatalf("%s%v", b.name, err)
					}
				}
			}
		})
	}
}

// FuzzScanPrefix checks ScanPrefix against a filtered full Scan on a tree
// the fuzzer shapes. stems, split on 0x00, each contribute a run of keys
// (the stem plus a two-byte counter; reps sets the run's length); the tree
// is bulk-loaded or built by inserts; each byte pair of dels deletes a
// contiguous run of the sorted keys (start, length), which can empty whole
// leaves; prefix is the probe. The scan must equal the model, and no error
// other than the callback's own may come back.
func FuzzScanPrefix(f *testing.F) {
	f.Add([]byte("abc"), uint8(10), []byte{}, []byte("ab"), true)
	f.Add([]byte("site/people\x00site/regions\x00site/regions/africa"), uint8(40), []byte{0x40, 0x30}, []byte("site/regions"), false)
	f.Add(bytes.Repeat([]byte("p"), 300), uint8(60), []byte{0x00, 0xff, 0xa0, 0x10}, bytes.Repeat([]byte("p"), 301), true)
	f.Fuzz(func(t *testing.T, stems []byte, reps uint8, dels, prefix []byte, bulk bool) {
		var entries []Entry
		for s, stem := range bytes.Split(stems, []byte{0x00}) {
			if s == 16 {
				break
			}
			stem = stem[:min(len(stem), 400)]
			for i := 0; i < 4*int(reps)+1; i++ {
				k := append(slices.Clone(stem), byte(i>>8), byte(i))
				entries = append(entries, Entry{Key: k, Val: []byte{byte(s), byte(i)}})
			}
		}
		sort.SliceStable(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
		pool := newPool(t, 16*storage.PageSize)
		var tr *Tree
		var err error
		if bulk {
			tr, err = BulkLoad(pool, "fuzz", entries)
		} else if tr, err = New(pool, "fuzz"); err == nil {
			for _, e := range entries {
				if err = tr.Insert(e.Key, e.Val); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		for i := 0; i+1 < len(dels) && len(entries) > 0; i += 2 {
			start := int(dels[i]) * len(entries) / 256
			end := min(len(entries), start+4*int(dels[i+1]))
			for _, e := range entries[start:end] {
				if ok, err := tr.Delete(e.Key, e.Val); err != nil || !ok {
					t.Fatalf("Delete(%q) = %v, %v", e.Key, ok, err)
				}
			}
			entries = append(entries[:start], entries[end:]...)
		}
		if err := checkScanPrefix(tr, new(PrefixScan), prefix); err != nil {
			t.Fatal(err)
		}
	})
}
