package engine

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// prunedConfig prunes every data-node head of DATAPATHS.
func prunedConfig() Config {
	return Config{BufferPoolBytes: 8 << 20, PathsOptions: index.PathsOptions{
		KeepHead: func(int64) bool { return false },
	}}
}

// TestHeadPruningNeverAnswersWrong: a DATAPATHS index built with HeadId
// pruning is missing the rows of the pruned heads, so the planner must
// never probe it bound. With every data-node head pruned, each XMark
// workload text answers as the oracle does under pinned DP, under DP with
// an INL factor of 1 (every less selective branch would go
// index-nested-loop), and under Auto. A bound probe at a pruned head
// returns nothing, so an INL join over the index would lose whole answers
// (Q8x, Q9x). Pruning is in memory only: a Backup of the pruned database,
// which would write the index to a file, is refused.
func TestHeadPruningNeverAnswersWrong(t *testing.T) {
	db, err := Open(prunedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20})); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	checkPrunedAnswers(t, "built", db)
	if err := db.Backup(filepath.Join(t.TempDir(), "backup.db")); !errors.Is(err, ErrPrunedNotPersistable) {
		t.Fatalf("Backup of a pruned DATAPATHS: got %v, want ErrPrunedNotPersistable", err)
	}
}

// TestPrunedDataPathsNeverReachAFile is the reopen probe that used to
// answer wrong: a DATAPATHS built pruned on a file, closed and reopened,
// was probed bound by a process that did not pass the pruning again, and
// lost the pruned heads' answers with no error. Now the build fails, and
// nothing pruned is written (ROOTPATHS, which has no head column, still
// builds). A version-3 file — which may hold a pruned DATAPATHS, and
// cannot say — is refused at Open, with or without the option, before it
// can answer.
func TestPrunedDataPathsNeverReachAFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pruned.db")
	cfg := prunedConfig()
	cfg.Path = path
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20})); err != nil {
		t.Fatal(err)
	}
	for _, kinds := range [][]index.Kind{{index.KindDataPaths}, index.PersistedKinds()} {
		if err := db.Build(kinds...); !errors.Is(err, ErrPrunedNotPersistable) {
			t.Fatalf("Build(%v) pruned on a file: got %v, want ErrPrunedNotPersistable", kinds, err)
		}
	}
	if db.Env().DP != nil {
		t.Fatal("a refused build installed DATAPATHS")
	}
	if err := db.Build(index.KindRootPaths); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant a version-3 file holding a DATAPATHS.
	plain := Config{BufferPoolBytes: 8 << 20, Path: path}
	if db, err = Open(plain); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	restampCatalog(t, path, 3)
	for _, c := range []Config{cfg, plain} {
		if db, err := Open(c); !errors.Is(err, storage.ErrFormatVersion) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("Open of a version-3 file (pruning %v): got %v, want ErrFormatVersion", c.PathsOptions.KeepHead != nil, err)
		}
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
