package engine

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/pathdict"
	"repro/internal/stats"
	"repro/internal/storage"
)

// fuzzEntries decodes a fuzz input into node table entries: records of
// [key length u8][key][value length u8][value] until the input runs out,
// sorted by key as a tree holds them.
func fuzzEntries(data []byte) []btree.Entry {
	var out []btree.Entry
	field := func() ([]byte, bool) {
		if len(data) == 0 || len(data) < 1+int(data[0]) {
			return nil, false
		}
		f := data[1 : 1+int(data[0])]
		data = data[1+int(data[0]):]
		return f, true
	}
	for {
		key, ok := field()
		if !ok {
			break
		}
		val, ok := field()
		if !ok {
			break
		}
		out = append(out, btree.Entry{Key: key, Val: val})
	}
	slices.SortStableFunc(out, func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return out
}

// FuzzNodeTable bulk-loads fuzzed entries as a node table and reads it
// with both consumers of the one scanner: the store loader and the
// statistics stream of Open. Neither may panic; either both reject the
// table with index.ErrCorruptCatalog, or the streamed statistics equal a
// Collect of the loaded store and the last id read is the store's last.
// The corpus in testdata/fuzz/FuzzNodeTable starts from the hand-built
// tables of TestNodeTableRejectsCorruptEntries and a few sound ones.
func FuzzNodeTable(f *testing.F) {
	dict := pathdict.NewDict()
	for _, l := range []string{"a", "b", "@c"} {
		dict.Intern(l)
	}
	pats := statsPatterns(dict)
	f.Fuzz(func(t *testing.T, data []byte) {
		dev := storage.NewMemFileDisk()
		defer dev.Close()
		pool := storage.NewPool(dev, 64*storage.PageSize)
		tree, err := btree.BulkLoad(pool, nodeTableName, fuzzEntries(data))
		if err == nil {
			err = pool.FlushAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		m := tree.Meta()
		streamed, last, errStats := readNodeStats(dev, m, dict)
		store, errStore := readNodeTable(dev, m, dict)
		if errStats != nil || errStore != nil {
			if !errors.Is(errStats, index.ErrCorruptCatalog) || !errors.Is(errStore, index.ErrCorruptCatalog) {
				t.Fatalf("statistics: %v; store: %v; want both index.ErrCorruptCatalog", errStats, errStore)
			}
			return
		}
		if last != store.NextID()-1 {
			t.Fatalf("the scan ended at id %d, the store at %d", last, store.NextID()-1)
		}
		requireStatsEqual(t, "fuzzed table", dict, streamed, stats.Collect(store, dict), pats)
	})
}
