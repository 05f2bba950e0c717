package engine

import (
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// TestHeadPruningNeverAnswersWrong: a DATAPATHS index built with HeadId
// pruning is missing the rows of the pruned heads, so the planner must
// never probe it bound. With every data-node head pruned, each XMark
// workload text answers as the oracle does under pinned DP, under DP with
// an INL factor of 1 (every less selective branch would go
// index-nested-loop), and under Auto — before and after a close and a
// reopen that passes the option again. A bound probe at a pruned head
// returns nothing, so an INL join over the index would lose whole answers
// (Q8x, Q9x).
func TestHeadPruningNeverAnswersWrong(t *testing.T) {
	for _, file := range []bool{false, true} {
		cfg := Config{BufferPoolBytes: 8 << 20, PathsOptions: index.PathsOptions{
			KeepHead: func(int64) bool { return false },
		}}
		if file {
			cfg.Path = filepath.Join(t.TempDir(), "pruned.db")
		}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20})); err != nil {
			t.Fatal(err)
		}
		if err := db.Build(index.KindDataPaths); err != nil {
			t.Fatal(err)
		}
		checkPrunedAnswers(t, "built", db)
		if !file {
			db.Close()
			continue
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		if !db.Env().DP.PrunesHeads() {
			t.Fatal("DATAPATHS reopened with KeepHead does not report pruning")
		}
		checkPrunedAnswers(t, "reopened", db)
		db.Close()
	}
}

func checkPrunedAnswers(t *testing.T, tag string, db *DB) {
	t.Helper()
	inl := *db.Env()
	inl.INLFactor = 1
	for _, q := range workload.XMark() {
		pat := xpath.MustParse(q.XPath)
		want, err := db.Read(pat, ReadOpts{Planner: Oracle})
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := pinnedIDs(db, pat, plan.DataPathsPlan)
		if err != nil || !equalIDs(pinned, want.IDs) {
			t.Fatalf("%s: %s via pinned DP: %d ids (%v), oracle %d", tag, q.ID, len(pinned), err, len(want.IDs))
		}
		tree, err := plan.Build(&inl, plan.DataPathsPlan, pat)
		if err != nil {
			t.Fatal(err)
		}
		ids, _, err := plan.Run(&inl, tree, false)
		if err != nil || !equalIDs(ids, want.IDs) {
			t.Fatalf("%s: %s via DP with INL factor 1: %d ids (%v), oracle %d\n%s", tag, q.ID, len(ids), err, len(want.IDs), tree.Render())
		}
		auto, err := db.Read(pat, ReadOpts{Planner: Auto})
		if err != nil || !equalIDs(auto.IDs, want.IDs) {
			t.Fatalf("%s: %s via Auto: %d ids (%v), oracle %d", tag, q.ID, len(auto.IDs), err, len(want.IDs))
		}
	}
}
