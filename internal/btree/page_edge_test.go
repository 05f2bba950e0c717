package btree

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestInsertMaxEntryIntoNearlyFullPage drives a MaxEntrySize entry into a
// leaf that is almost out of contiguous space, forcing the in-place fast
// path to decline and the fallback to split correctly.
func TestInsertMaxEntryIntoNearlyFullPage(t *testing.T) {
	pool := newPool(t, 4<<20)
	tr, err := New(pool, "edge")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single leaf close to the brim with small same-prefix entries
	// (in-place inserts, no split: ~30 bytes each, stop well under a page).
	var keys [][]byte
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("shared/prefix/%06d", i))
		keys = append(keys, k)
		if err := tr.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Now a maximum-size entry: key+val exactly MaxEntrySize.
	big := []byte("shared/prefix/zzzzzz")
	bigVal := bytes.Repeat([]byte{0xEE}, MaxEntrySize-len(big))
	if err := tr.Insert(big, bigVal); err != nil {
		t.Fatal(err)
	}
	// One byte over must be rejected.
	if err := tr.Insert(big, append(bigVal, 0)); err == nil {
		t.Fatalf("oversize entry accepted")
	}
	got, ok, err := tr.Get(big)
	if err != nil || !ok {
		t.Fatalf("big entry lost: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, bigVal) {
		t.Fatalf("big entry value corrupted")
	}
	for _, k := range keys {
		if _, ok, _ := tr.Get(k); !ok {
			t.Fatalf("entry %q lost around the big insert", k)
		}
	}
}

// TestSplitPrefixShrinksToZero fills pages whose keys share a long prefix,
// then inserts keys that share nothing with them: the affected page's common
// prefix collapses to zero and the in-place path must fall back. Under a
// 400-byte prefix the page no longer splits down the middle — the half
// holding the new key would not fit — but where both halves do.
func TestSplitPrefixShrinksToZero(t *testing.T) {
	for _, prefix := range []string{"www/common/deep/prefix/", strings.Repeat("long/", 80)} {
		pool := newPool(t, 4<<20)
		tr, err := New(pool, "edge")
		if err != nil {
			t.Fatal(err)
		}
		var keys [][]byte
		for i := 0; i < 400; i++ {
			k := []byte(fmt.Sprintf("%s%06d", prefix, i))
			keys = append(keys, k)
			if err := tr.Insert(k, []byte("p")); err != nil {
				t.Fatal(err)
			}
		}
		// Keys sorting before and after the shared-prefix block, sharing no
		// bytes with it ("A..." < "l..." < "www..." < "z...").
		for i := 0; i < 50; i++ {
			lo := []byte(fmt.Sprintf("A%06d", i))
			hi := []byte(fmt.Sprintf("z%06d", i))
			keys = append(keys, lo, hi)
			if err := tr.Insert(lo, []byte("lo")); err != nil {
				t.Fatalf("prefix %d bytes: %v", len(prefix), err)
			}
			if err := tr.Insert(hi, []byte("hi")); err != nil {
				t.Fatalf("prefix %d bytes: %v", len(prefix), err)
			}
		}
		for _, k := range keys {
			if _, ok, err := tr.Get(k); !ok || err != nil {
				t.Fatalf("key %q unreadable after prefix collapse: ok=%v err=%v", k, ok, err)
			}
		}
		// The whole tree must still scan in sorted order.
		it, err := tr.Scan()
		if err != nil {
			t.Fatal(err)
		}
		var prev []byte
		n := 0
		for ; it.Valid(); it.Next() {
			k := it.Key()
			if prev != nil && bytes.Compare(prev, k) > 0 {
				t.Fatalf("scan out of order: %q after %q", k, prev)
			}
			prev = append(prev[:0], k...)
			n++
		}
		it.Close()
		if n != len(keys) {
			t.Fatalf("scan visited %d entries, want %d", n, len(keys))
		}
	}
}

// TestDeleteThenInsertCompaction deletes entries from the middle of a leaf
// (leaving heap garbage below the floor) and re-inserts until the fallback
// re-encode must compact that garbage to make the new entries fit.
func TestDeleteThenInsertCompaction(t *testing.T) {
	pool := newPool(t, 4<<20)
	tr, err := New(pool, "edge")
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xAB}, 100)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k/%05d", i)) }
	// ~60 entries of ~120 bytes fill most of one leaf.
	for i := 0; i < 60; i++ {
		if err := tr.Insert(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the middle third: their cells become heap garbage (the floor
	// cannot rise past live cells above them).
	for i := 20; i < 40; i++ {
		ok, err := tr.Delete(key(i), val)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Re-insert different keys of the same size; the contiguous gap is too
	// small, so these must trigger the compacting re-encode and still fit
	// without an unnecessary split.
	for i := 100; i < 120; i++ {
		if err := tr.Insert(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	want := 60
	if st := tr.Stats(); st.Entries != int64(want) {
		t.Fatalf("entries = %d, want %d", st.Entries, want)
	}
	for i := 0; i < 120; i++ {
		_, ok, err := tr.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		wantOK := i < 20 || (i >= 40 && i < 60) || (i >= 100 && i < 120)
		if ok != wantOK {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, wantOK)
		}
	}
}

// TestInPlaceDeleteReclaimsFloorCell checks the micro-reclaim: deleting the
// cell at the heap floor raises the floor so an equal-size insert goes back
// in place without compaction.
func TestInPlaceDeleteReclaimsFloorCell(t *testing.T) {
	d := make([]byte, storage.PageSize)
	pc := pageContent{leaf: true, aux: storage.InvalidPage, entries: []entry{
		{key: []byte("aa"), val: []byte("v1")},
		{key: []byte("ab"), val: []byte("v2")},
		{key: []byte("ac"), val: []byte("v3")},
	}}
	if err := encodePage(&pc, d); err != nil {
		t.Fatal(err)
	}
	floor := pageHeapStart(d)
	// Cell 2 ("ac") was encoded last, so it sits at the floor.
	deleteCellInPlace(d, 2)
	if got := pageHeapStart(d); got <= floor {
		t.Fatalf("floor not raised after floor-cell delete: %d -> %d", floor, got)
	}
	if !insertInPlace(d, new(Tree).search(d, []byte("ad"), nil, false), []byte("ad"), []byte("v4"), storage.InvalidPage) {
		t.Fatalf("in-place insert after floor reclaim declined")
	}
	if n := pageNumCells(d); n != 3 {
		t.Fatalf("numCells = %d, want 3", n)
	}
	suffix, v := leafCell(d, 2)
	if string(suffix) != "d" || string(v) != "v4" {
		t.Fatalf("cell 2 = (%q, %q), want (d, v4) under prefix %q", suffix, v, pagePrefix(d))
	}
}

// TestInPlaceInsertDeclinesForeignPrefix: an in-place insert whose key does
// not carry the page prefix must decline and leave the page untouched.
func TestInPlaceInsertDeclinesForeignPrefix(t *testing.T) {
	d := make([]byte, storage.PageSize)
	pc := pageContent{leaf: true, aux: storage.InvalidPage, entries: []entry{
		{key: []byte("node/aaa"), val: []byte("1")},
		{key: []byte("node/bbb"), val: []byte("2")},
	}}
	if err := encodePage(&pc, d); err != nil {
		t.Fatal(err)
	}
	if pagePrefixLen(d) == 0 {
		t.Fatalf("test page has no prefix")
	}
	before := append([]byte(nil), d...)
	if insertInPlace(d, 0, []byte("alien"), []byte("x"), storage.InvalidPage) {
		t.Fatalf("in-place insert accepted a key outside the page prefix")
	}
	if !bytes.Equal(before, d) {
		t.Fatalf("declined insert modified the page")
	}
}

// TestMalformedSeparatorValue: a valued separator whose value length runs
// past the page fails as storage.ErrCorruptPage — never a panic — in every
// decoder that checks cells: decodePage, ReadEntries and the iterator's
// climb to the next leaf.
func TestMalformedSeparatorValue(t *testing.T) {
	dev := storage.NewMemFileDisk()
	pool := storage.NewPool(dev, 1<<20)
	tr, err := New(pool, "run")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Insert([]byte("run"), []byte(fmt.Sprintf("%0100d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pg, err := tr.fetch(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	off := cellOffset(pg.Data, 0)
	if pageType(pg.Data) != pageInternal || u16(pg.Data[off:])&valuedSep == 0 {
		t.Fatal("the root's first separator carries no value")
	}
	putU16(pg.Data[off+6:], 0xFFFF)
	_, err = decodePage(pg.Data)
	pool.Unpin(pg, true)
	if !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("decodePage: %v, want ErrCorruptPage", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := ReadEntries(dev, tr.Meta(), func(_, _ []byte) error { return nil }); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("ReadEntries: %v, want ErrCorruptPage", err)
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for ; it.Valid(); it.Next() {
	}
	it.Close()
	if !errors.Is(it.Err(), storage.ErrCorruptPage) {
		t.Fatalf("scan: %v, want ErrCorruptPage", it.Err())
	}
}
