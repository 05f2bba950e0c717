package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/storage"
)

func newPool(t testing.TB, bytes int64) *storage.Pool {
	t.Helper()
	return storage.NewPool(storage.NewMemFileDisk(), bytes)
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(newPool(t, 1<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Valid() {
		t.Fatalf("empty tree has entries")
	}
	if _, ok, _ := tr.Get([]byte("x")); ok {
		t.Fatalf("Get on empty tree returned ok")
	}
}

func TestInsertAndGet(t *testing.T) {
	tr, err := New(newPool(t, 1<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{"b": "2", "a": "1", "c": "3", "": "empty"}
	for k, v := range pairs {
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range pairs {
		got, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	if _, ok, _ := tr.Get([]byte("zz")); ok {
		t.Fatalf("Get of absent key returned ok")
	}
}

func TestOrderedScanAfterRandomInserts(t *testing.T) {
	tr, err := New(newPool(t, 4<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", rng.Intn(100000))
	}
	for i, k := range keys {
		if err := tr.Insert([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(keys)
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for ; it.Valid(); it.Next() {
		if string(it.Key()) != keys[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, it.Key(), keys[i])
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scan returned %d entries, want %d", i, n)
	}
	if st := tr.Stats(); st.Height < 2 || st.Entries != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, err := New(newPool(t, 4<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	// Enough duplicates to straddle many leaves.
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte("dup"), []byte(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert([]byte("before"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("later"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	it, err := tr.Seek([]byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for ; it.Valid() && bytes.Equal(it.Key(), []byte("dup")); it.Next() {
		count++
	}
	if count != n {
		t.Fatalf("found %d duplicates, want %d", count, n)
	}
	if !it.Valid() || string(it.Key()) != "later" {
		t.Fatalf("after duplicates: %q", it.Key())
	}
}

func TestSeekSemantics(t *testing.T) {
	tr, err := New(newPool(t, 1<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "d", "f"} {
		if err := tr.Insert([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"f", "f"}, {"g", ""},
	}
	for _, c := range cases {
		it, err := tr.Seek([]byte(c.seek))
		if err != nil {
			t.Fatal(err)
		}
		if c.want == "" {
			if it.Valid() {
				t.Fatalf("Seek(%q) found %q, want exhausted", c.seek, it.Key())
			}
		} else if !it.Valid() || string(it.Key()) != c.want {
			t.Fatalf("Seek(%q) = %q, want %q", c.seek, it.Key(), c.want)
		}
		it.Close()
	}
}

func TestPrefixScan(t *testing.T) {
	tr, err := New(newPool(t, 4<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("%04d", i)
		if err := tr.Insert([]byte(k), nil); err != nil {
			t.Fatal(err)
		}
		if k[:2] == "12" {
			want++
		}
	}
	var it PrefixIterator
	if err := tr.SeekPrefixInto([]byte("12"), &it); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := 0
	for ; it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), []byte("12")) {
			t.Fatalf("prefix scan leaked key %q", it.Key())
		}
		got++
	}
	if got != want {
		t.Fatalf("prefix scan found %d, want %d", got, want)
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var entries []Entry
	for i := 0; i < 8000; i++ {
		entries = append(entries, Entry{
			Key: []byte(fmt.Sprintf("k%07d", rng.Intn(50000))),
			Val: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })

	// A one-page pool loads too: the load pins one page at a time.
	var bl *Tree
	for _, poolBytes := range []int64{storage.PageSize, 8 << 20} {
		var err error
		if bl, err = BulkLoad(newPool(t, poolBytes), "bulk", entries); err != nil {
			t.Fatalf("%d-byte pool: %v", poolBytes, err)
		}
		it, err := bl.Scan()
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; it.Valid(); it.Next() {
			if !bytes.Equal(it.Key(), entries[i].Key) {
				t.Fatalf("%d-byte pool: bulk scan[%d] = %q, want %q", poolBytes, i, it.Key(), entries[i].Key)
			}
			i++
		}
		it.Close()
		if i != len(entries) {
			t.Fatalf("%d-byte pool: bulk scan %d entries, want %d", poolBytes, i, len(entries))
		}
		if st := bl.Stats(); st.Height < 2 || st.Entries != int64(len(entries)) {
			t.Fatalf("%d-byte pool: bulk stats = %+v", poolBytes, st)
		}
	}

	// Random Seeks agree with binary search over the sorted input.
	for trial := 0; trial < 200; trial++ {
		probe := []byte(fmt.Sprintf("k%07d", rng.Intn(50000)))
		j := sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].Key, probe) >= 0 })
		it, err := bl.Seek(probe)
		if err != nil {
			t.Fatal(err)
		}
		if j == len(entries) {
			if it.Valid() {
				t.Fatalf("Seek(%q) found %q, want exhausted", probe, it.Key())
			}
		} else if !it.Valid() || !bytes.Equal(it.Key(), entries[j].Key) {
			t.Fatalf("Seek(%q) = %q, want %q", probe, it.Key(), entries[j].Key)
		}
		it.Close()
	}
}

func TestBulkLoadUnsorted(t *testing.T) {
	_, err := BulkLoad(newPool(t, 1<<20), "bad", []Entry{
		{Key: []byte("b")}, {Key: []byte("a")},
	})
	if err == nil {
		t.Fatalf("unsorted bulk load: want error")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(newPool(t, 1<<20), "empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Valid() {
		t.Fatalf("empty bulk tree has entries")
	}
}

func TestEntryTooLarge(t *testing.T) {
	tr, err := New(newPool(t, 1<<20), "t")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, MaxEntrySize+1)
	if err := tr.Insert(big, nil); err == nil {
		t.Fatalf("oversized insert: want error")
	}
	if _, err := BulkLoad(newPool(t, 1<<20), "t2", []Entry{{Key: big}}); err == nil {
		t.Fatalf("oversized bulk entry: want error")
	}
}

// TestModelRandomOps cross-checks the tree against a sorted-slice model with
// random keys of varied length (exercising prefix compression and splits).
func TestModelRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr, err := New(newPool(t, 8<<20), "model")
	if err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, v string }
	var model []kv
	randKey := func() string {
		// Shared prefixes of varying depth.
		depth := 1 + rng.Intn(6)
		b := make([]byte, 0, depth*3)
		for i := 0; i < depth; i++ {
			b = append(b, byte('a'+rng.Intn(4)), byte('0'+rng.Intn(10)))
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		k, v := randKey(), fmt.Sprintf("%d", i)
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model = append(model, kv{k, v})
	}
	sort.SliceStable(model, func(i, j int) bool { return model[i].k < model[j].k })

	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for ; it.Valid(); it.Next() {
		if string(it.Key()) != model[i].k {
			t.Fatalf("model mismatch at %d: %q vs %q", i, it.Key(), model[i].k)
		}
		i++
	}
	if i != len(model) {
		t.Fatalf("scan %d entries, want %d", i, len(model))
	}

	// Prefix scans agree with model counts.
	for trial := 0; trial < 100; trial++ {
		p := randKey()
		p = p[:2*(1+rng.Intn(len(p)/2))]
		want := 0
		for _, m := range model {
			if bytes.HasPrefix([]byte(m.k), []byte(p)) {
				want++
			}
		}
		ps := PrefixScan{Prefix: []byte(p)}
		got, err := tr.ScanPrefix(&ps, func(key, _ []byte) error {
			if !bytes.HasPrefix(key, ps.Prefix) {
				t.Fatalf("prefix scan of %q leaked key %q", p, key)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("prefix %q: got %d, want %d", p, got, want)
		}
	}
}

// TestSmallPoolEviction runs the model test through a pool far smaller than
// the tree, forcing constant eviction, to verify nothing depends on pages
// staying resident.
func TestSmallPoolEviction(t *testing.T) {
	pool := newPool(t, 8*storage.PageSize)
	tr, err := New(pool, "small")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%08d", i*7919%n)
		if err := tr.Insert([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	prev := ""
	for ; it.Valid(); it.Next() {
		if string(it.Key()) < prev {
			t.Fatalf("out of order after eviction: %q < %q", it.Key(), prev)
		}
		prev = string(it.Key())
		count++
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if st := pool.Stats(); st.PageReads == 0 {
		t.Fatalf("expected page faults with a tiny pool, got %+v", st)
	}
}

func TestPrefixCompressionSavesSpace(t *testing.T) {
	// Long shared prefix (like reversed schema paths under one value).
	shared := bytes.Repeat([]byte("p"), 64)
	var entries []Entry
	for i := 0; i < 4000; i++ {
		entries = append(entries, Entry{Key: append(append([]byte(nil), shared...), []byte(fmt.Sprintf("%06d", i))...)})
	}
	withPrefix, err := BulkLoad(newPool(t, 16<<20), "p", entries)
	if err != nil {
		t.Fatal(err)
	}
	// Same entries but with the shared prefix destroyed by a unique lead.
	var spread []Entry
	for i := 0; i < 4000; i++ {
		spread = append(spread, Entry{Key: append([]byte(fmt.Sprintf("%06d", i)), shared...)})
	}
	noPrefix, err := BulkLoad(newPool(t, 16<<20), "np", spread)
	if err != nil {
		t.Fatal(err)
	}
	if withPrefix.Stats().Pages >= noPrefix.Stats().Pages {
		t.Fatalf("prefix compression ineffective: %d pages vs %d", withPrefix.Stats().Pages, noPrefix.Stats().Pages)
	}
}
