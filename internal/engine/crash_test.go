package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/naive"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Crash-recovery torture: drive a file-backed engine through a random
// sequence of loads, builds, inserts, deletes and checkpoints; at random
// moments take a "crash image" (copy of the database file plus the WAL
// truncated at an arbitrary byte offset — the write-then-truncate
// kill-point injection); reopen the image and verify, with the in-memory
// differential oracle, that recovery landed exactly on the last commit
// record that fully survived the truncation.

// torOp is one replayable mutation. Documents/subtrees are prototypes,
// cloned before every use, so a sequence replays identically (same node
// ids, same index rows) into any fresh engine.
type torOp struct {
	kind     string // "load", "build", "insert", "delete", "ckpt"
	doc      *xmldb.Document
	parentID int64
	nodeID   int64
}

// applyOp replays one op; errors are fatal (ops are constructed valid).
func applyOp(t *testing.T, db *DB, op torOp) {
	t.Helper()
	var err error
	switch op.kind {
	case "load":
		db.AddDocument(cloneDoc(op.doc))
	case "build":
		err = db.Build(allKinds...)
	case "insert":
		err = db.InsertSubtree(op.parentID, cloneDoc(op.doc).Root)
	case "delete":
		err = db.DeleteSubtree(op.nodeID)
	case "ckpt":
		err = db.Checkpoint()
	}
	if err != nil {
		t.Fatalf("op %s: %v", op.kind, err)
	}
}

// liveNodeIDs collects the ids of nodes eligible as insert parents
// (any node) and delete victims (non-root), deterministically.
func liveNodeIDs(db *DB) (parents, victims []int64) {
	db.Store().Walk(func(n *xmldb.Node) bool {
		parents = append(parents, n.ID)
		if n.ParentID != 0 {
			victims = append(victims, n.ID)
		}
		return true
	})
	return parents, victims
}

// verifyRecovered cross-checks a recovered database against an oracle
// engine holding the expected state: store walks must match, and every
// strategy (run concurrently, for the race detector) must agree with the
// naive matcher on the oracle's store.
func verifyRecovered(t *testing.T, tag string, rec, oracle *DB, queries []string) {
	t.Helper()
	dumpStore := func(db *DB) string {
		out := ""
		for _, d := range db.Store().Docs {
			out += xmldb.Dump(d.Root)
		}
		return out
	}
	if got, want := dumpStore(rec), dumpStore(oracle); got != want {
		t.Fatalf("%s: recovered store diverges\ngot:\n%s\nwant:\n%s", tag, got, want)
	}
	if got, want := rec.Store().NextID(), oracle.Store().NextID(); got != want {
		t.Fatalf("%s: nextID %d, want %d", tag, got, want)
	}
	for _, q := range queries {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("%s: query %q: %v", tag, q, err)
		}
		want := naive.Match(oracle.Store(), pat)
		if got := rec.MatchNaive(pat); !equalIDs(got, want) {
			t.Fatalf("%s: naive on recovered store for %q: got %v want %v", tag, q, got, want)
		}
		var wg sync.WaitGroup
		errs := make([]string, len(diffStrategies))
		for i, s := range diffStrategies {
			wg.Add(1)
			go func(i int, s int) {
				defer wg.Done()
				strat := diffStrategies[i]
				gotIDs, gotErr := pinnedIDs(rec, pat, strat)
				_, oraErr := pinnedIDs(oracle, pat, strat)
				if (gotErr == nil) != (oraErr == nil) {
					errs[i] = fmt.Sprintf("%q via %v: recovered err %v, oracle err %v", q, strat, gotErr, oraErr)
					return
				}
				if gotErr == nil && !equalIDs(gotIDs, want) {
					errs[i] = fmt.Sprintf("%q via %v: got %v want %v", q, strat, gotIDs, want)
				}
			}(i, int(s))
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatalf("%s: %s", tag, e)
			}
		}
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	seeds := 6
	crashesPerSeed := 4
	if testing.Short() {
		seeds, crashesPerSeed = 2, 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			path := filepath.Join(dir, "twig.db")
			// A tiny pool forces evictions mid-build, exercising the
			// WAL-before-commit writeback path.
			cfg := Config{Path: path, BufferPoolBytes: 128 << 10}

			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fdisk := db.fdisk

			var ops []torOp
			do := func(op torOp) {
				applyOp(t, db, op)
				ops = append(ops, op)
			}
			// Committed-state marks: after op index opIdx, the durable WAL
			// prefix ends at end. A checkpoint resets the WAL; baseline is
			// the op prefix already migrated into the database file.
			type mark struct {
				end   int64
				opIdx int
			}
			var marks []mark
			baseline := -1 // ops[0..baseline] are in the db file
			noteCommit := func() {
				marks = append(marks, mark{end: fdisk.WALSize(), opIdx: len(ops) - 1})
			}

			// The load is not a commit boundary (documents become durable at
			// the next Build/Insert/Delete/Checkpoint), so the first mark
			// lands after the build.
			do(torOp{kind: "load", doc: genDoc(rng, 40)})
			do(torOp{kind: "build"})
			noteCommit()

			steps := 10
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(10); {
				case r < 4: // insert
					parents, _ := liveNodeIDs(db)
					p := parents[rng.Intn(len(parents))]
					do(torOp{kind: "insert", parentID: p, doc: genDoc(rng, 8)})
					noteCommit()
				case r < 6: // delete
					_, victims := liveNodeIDs(db)
					if len(victims) == 0 {
						continue
					}
					do(torOp{kind: "delete", nodeID: victims[rng.Intn(len(victims))]})
					noteCommit()
				case r < 8: // rebuild everything
					do(torOp{kind: "build"})
					noteCommit()
				default: // checkpoint
					do(torOp{kind: "ckpt"})
					baseline = len(ops) - 1
					marks = nil
				}
			}

			// Take crash images at random WAL truncation points.
			walSize := fdisk.WALSize()
			dbImage, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			walImage, err := os.ReadFile(path + storage.WALSuffix)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(walImage)) != walSize {
				t.Fatalf("wal image %d bytes, device reports %d", len(walImage), walSize)
			}
			fdisk.Close() // abandon without commit: the images are the crash state

			for c := 0; c < crashesPerSeed; c++ {
				off := int64(rng.Intn(int(walSize) + 1))
				// Expected surviving prefix: the last commit mark at or
				// before the truncation point, else the checkpoint baseline.
				// Expected surviving prefix: the last commit mark at or
				// before the truncation point, else the checkpoint baseline
				// (-1, an empty database, when neither exists).
				expIdx := baseline
				for _, m := range marks {
					if m.end <= off {
						expIdx = m.opIdx
					}
				}

				crashPath := filepath.Join(dir, fmt.Sprintf("crash%d.db", c))
				if err := os.WriteFile(crashPath, dbImage, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(crashPath+storage.WALSuffix, walImage[:off], 0o644); err != nil {
					t.Fatal(err)
				}

				rec, err := Open(Config{Path: crashPath, BufferPoolBytes: 1 << 20})
				if err != nil {
					t.Fatalf("crash %d (off %d/%d): reopen: %v", c, off, walSize, err)
				}
				oracle := New(Config{BufferPoolBytes: 4 << 20})
				for i := 0; i <= expIdx; i++ {
					applyOp(t, oracle, ops[i])
				}
				queries := make([]string, 4)
				for i := range queries {
					if len(oracle.Store().Docs) > 0 {
						queries[i] = genQueryFor(rng, oracle.Store().Docs[0])
					} else {
						queries[i] = genQuery(rng)
					}
				}
				tag := fmt.Sprintf("seed %d crash %d (wal %d/%d, ops 0..%d)", seed, c, off, walSize, expIdx)
				verifyRecovered(t, tag, rec, oracle, queries)

				// The recovered database must also keep working: one more
				// committed mutation and re-verification.
				parents, _ := liveNodeIDs(rec)
				if len(parents) > 0 {
					extra := torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 6)}
					applyOp(t, rec, extra)
					applyOp(t, oracle, extra)
					verifyRecovered(t, tag+" +insert", rec, oracle, queries[:2])
				}
				if err := rec.Close(); err != nil {
					t.Fatalf("%s: close: %v", tag, err)
				}
			}
		})
	}
}

// TestCrashDuringCheckpoint kills the process (by image capture) at every
// internal boundary of FileDisk.Checkpoint — after each incremental
// migration batch, after the finalize's page migration, after the
// superblock rewrite, after the database-file fsync, and after the WAL
// truncation — and verifies each image recovers to exactly the same
// logical state: a checkpoint moves bytes, never meaning, so no kill-point
// may lose or duplicate a commit.
func TestCrashDuringCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}

	var ops []torOp
	do := func(op torOp) {
		applyOp(t, db, op)
		ops = append(ops, op)
	}
	do(torOp{kind: "load", doc: genDoc(rng, 40)})
	do(torOp{kind: "build"})
	for i := 0; i < 4; i++ {
		parents, victims := liveNodeIDs(db)
		if i == 2 && len(victims) > 0 {
			do(torOp{kind: "delete", nodeID: victims[rng.Intn(len(victims))]})
			continue
		}
		do(torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 8)})
	}

	// Capture a crash image (database file + WAL) at every stage boundary —
	// the incremental batch stage can fire many times, so the captures are
	// an ordered list, and recovery is verified from each one.
	type image struct {
		stage storage.CheckpointStage
		db    []byte
		wal   []byte
	}
	var images []image
	db.fdisk.SetCheckpointHook(func(stage storage.CheckpointStage) {
		d, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("stage %d: %v", stage, err)
			return
		}
		w, err := os.ReadFile(path + storage.WALSuffix)
		if err != nil {
			t.Errorf("stage %d: %v", stage, err)
			return
		}
		images = append(images, image{stage: stage, db: d, wal: w})
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.fdisk.SetCheckpointHook(nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[storage.CheckpointStage]int{}
	for _, img := range images {
		seen[img.stage]++
	}
	for _, want := range []storage.CheckpointStage{
		storage.CkptPagesMigrated, storage.CkptSuperblockWritten,
		storage.CkptFileSynced, storage.CkptWALTruncated,
	} {
		if seen[want] != 1 {
			t.Fatalf("finalize stage %d fired %d times, want 1 (stages: %v)", want, seen[want], seen)
		}
	}
	// The workload is sized so the committed delta exceeds the finalize
	// threshold: the incremental batch path must have run, or this test is
	// no longer covering it.
	if seen[storage.CkptBatchMigrated] == 0 {
		t.Fatalf("no incremental batch stage fired (stages: %v); grow the workload", seen)
	}

	oracle := New(Config{BufferPoolBytes: 4 << 20})
	for _, op := range ops {
		applyOp(t, oracle, op)
	}
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = genQueryFor(rng, oracle.Store().Docs[0])
	}

	for i, img := range images {
		crashPath := filepath.Join(dir, fmt.Sprintf("stage%d-%d.db", img.stage, i))
		if err := os.WriteFile(crashPath, img.db, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashPath+storage.WALSuffix, img.wal, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(Config{Path: crashPath, BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatalf("stage %d (capture %d): reopen: %v", img.stage, i, err)
		}
		tag := fmt.Sprintf("checkpoint stage %d capture %d", img.stage, i)
		verifyRecovered(t, tag, rec, oracle, queries)
		// The image must also accept new work.
		parents, _ := liveNodeIDs(rec)
		extra := torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 6)}
		applyOp(t, rec, extra)
		applyOp(t, oracle, extra)
		verifyRecovered(t, tag+" +insert", rec, oracle, queries[:2])
		// Undo the extra op on the oracle by rebuilding it for the next
		// stage: cheaper to re-replay than to diff.
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: close: %v", tag, err)
		}
		oracle = New(Config{BufferPoolBytes: 4 << 20})
		for _, op := range ops {
			applyOp(t, oracle, op)
		}
	}
}
