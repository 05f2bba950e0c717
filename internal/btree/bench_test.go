package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/storage"
)

// benchKeys returns n distinct keys shaped like the family's index keys: a
// shared structural prefix, a varying middle, and a numeric tail.
func benchKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 0, 32)
		k = append(k, "site/people/person/"...)
		k = append(k, byte('a'+rng.Intn(26)), byte('a'+rng.Intn(26)))
		k = binary.BigEndian.AppendUint64(k, uint64(rng.Int63()))
		keys[i] = k
	}
	return keys
}

var benchVal = []byte("0123456789abcdef")

// BenchmarkInsert measures amortised single-key inserts into a growing tree,
// the write path behind incremental index maintenance (paper Section 7).
// Every iteration inserts a key the tree does not hold: each carries the
// number of its pass over the key set as a suffix, so a later pass's key
// lands right after its earlier copies without tying with any of them.
func BenchmarkInsert(b *testing.B) {
	pool := storage.NewPool(storage.NewMemFileDisk(), 64<<20)
	tr, err := New(pool, "bench")
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1 << 16)
	var key []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = append(key[:0], keys[i%len(keys)]...)
		key = binary.BigEndian.AppendUint32(key, uint32(i/len(keys)))
		if err := tr.Insert(key, benchVal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildAll measures building a complete tree from scratch by
// successive inserts (the non-bulk build path); one op = one full build.
func BenchmarkBuildAll(b *testing.B) {
	keys := benchKeys(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := storage.NewPool(storage.NewMemFileDisk(), 64<<20)
		tr, err := New(pool, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := tr.Insert(k, benchVal); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConcurrentQuery measures point lookups through the buffer pool
// from parallel readers, the tree's documented concurrent-read mode.
func BenchmarkConcurrentQuery(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", procs), func(b *testing.B) {
			pool := storage.NewPool(storage.NewMemFileDisk(), 64<<20)
			keys := benchKeys(1 << 16)
			entries := make([]Entry, len(keys))
			for i, k := range keys {
				entries[i] = Entry{Key: k, Val: benchVal}
			}
			sort.Slice(entries, func(i, j int) bool {
				return bytes.Compare(entries[i].Key, entries[j].Key) < 0
			})
			tr, err := BulkLoad(pool, "bench", entries)
			if err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(1)
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := keys[i%len(keys)]
					i++
					it, err := tr.Seek(k)
					if err != nil {
						b.Error(err)
						return
					}
					if it.Valid() {
						_ = it.Value()
					}
					it.Close()
				}
			})
		})
	}
}

// BenchmarkScanPrefix runs a warmed PrefixScan over every two-letter
// middle of benchKeys — about a hundred rows each, spanning leaf
// boundaries — the loop behind every index probe. One op is one scan; it
// reports ns per row and must allocate nothing.
func BenchmarkScanPrefix(b *testing.B) {
	keys := benchKeys(1 << 16)
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: k, Val: benchVal}
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })
	tr, err := BulkLoad(storage.NewPool(storage.NewMemFileDisk(), 64<<20), "bench", entries)
	if err != nil {
		b.Fatal(err)
	}
	var prefixes [][]byte
	for x := byte('a'); x <= 'z'; x++ {
		for y := byte('a'); y <= 'z'; y++ {
			prefixes = append(prefixes, []byte{x, y})
		}
	}
	var ps PrefixScan
	sum := 0
	row := func(key, val []byte) error { sum += len(key) + len(val); return nil }
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		ps.Prefix = append(append(ps.Prefix[:0], "site/people/person/"...), prefixes[i%len(prefixes)]...)
		n, err := tr.ScanPrefix(&ps, row)
		if err != nil {
			b.Fatal(err)
		}
		rows += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rows, 1)), "ns/row")
}
