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
// with both consumers of the one scanner — the store loader and the
// statistics stream of Open — and with the point read the Edge climbs
// make, index.NodeTable.Parent, once per entry key. None may panic. A
// point read answers or fails with index.ErrCorruptCatalog; either both
// scans reject the table with index.ErrCorruptCatalog, or the streamed
// statistics equal a Collect of the loaded store, the last id read is the
// store's last, and the point read of every node names its parent and its
// label. The corpus in testdata/fuzz/FuzzNodeTable starts from the
// hand-built tables of TestNodeTableRejectsCorruptEntries and a few sound
// ones.
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
		entries := fuzzEntries(data)
		tree, err := btree.BulkLoad(pool, "NODES", entries)
		if err == nil {
			err = pool.FlushAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		m := tree.Meta()
		nt := index.OpenNodeTable(pool, m, dict)
		var sc index.Scratch
		for _, e := range entries {
			id, _, _ := index.DecodeNodeKey(e.Key)
			if _, _, _, err := nt.Parent(&sc, id); err != nil && !errors.Is(err, index.ErrCorruptCatalog) {
				t.Fatalf("point read of node %d: %v, want index.ErrCorruptCatalog", id, err)
			}
		}
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
		for id := int64(1); id < store.NextID(); id++ {
			n := store.NodeByID(id)
			if n == nil {
				continue
			}
			pid, sym, ok, err := nt.Parent(&sc, id)
			if want, _ := dict.Sym(n.Label); err != nil || !ok || pid != n.ParentID || sym != want {
				t.Fatalf("point read of node %d: parent %d, symbol %d, %v, %v; the store's: %d, %d", id, pid, sym, ok, err, n.ParentID, want)
			}
		}
	})
}
