package engine

// Commit-protocol kill points: capture a crash image (database file +
// write-ahead log) at each boundary of an explicit multi-statement
// transaction's commit — prepared, validated, published — and verify the
// transaction is all-or-nothing across recovery: images taken before the
// commit record was appended recover to exactly the pre-transaction
// state; the image taken after publication recovers with every statement
// of the transaction present.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func TestCrashDuringTxCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	// A large WAL budget keeps every commit a logged one.
	db, err := Open(Config{Path: path, BufferPoolBytes: 512 << 10, CheckpointWALBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}

	var ops []torOp
	do := func(op torOp) {
		applyOp(t, db, op)
		ops = append(ops, op)
	}
	do(torOp{kind: "load", doc: genDoc(rng, 30)})
	do(torOp{kind: "build"})
	for i := 0; i < 3; i++ {
		parents, _ := liveNodeIDs(db)
		do(torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 6)})
	}

	// The transaction's statements: two inserts under the document root and
	// one delete of a pre-existing node, as prototypes so the oracle can
	// replay them serially with identical node ids.
	rootID := db.Store().Docs[0].Root.ID
	_, victims := liveNodeIDs(db)
	victim := victims[rng.Intn(len(victims))]
	ins1, ins2 := genDoc(rng, 8), genDoc(rng, 5)
	txOps := []torOp{
		{kind: "insert", parentID: rootID, doc: ins1},
		{kind: "insert", parentID: rootID, doc: ins2},
		{kind: "delete", nodeID: victim},
	}

	type image struct {
		stage CommitStage
		db    []byte
		wal   []byte
	}
	var images []image
	db.SetCommitHook(func(stage CommitStage) {
		d, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("stage %v: %v", stage, err)
			return
		}
		w, err := os.ReadFile(path + storage.WALSuffix)
		if err != nil {
			t.Errorf("stage %v: %v", stage, err)
			return
		}
		images = append(images, image{stage: stage, db: d, wal: w})
	})

	tx := db.Begin()
	for _, op := range txOps {
		switch op.kind {
		case "insert":
			if err := tx.Insert(op.parentID, cloneDoc(op.doc).Root); err != nil {
				t.Fatal(err)
			}
		case "delete":
			if err := tx.Delete(op.nodeID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	seen := map[CommitStage]int{}
	for _, img := range images {
		seen[img.stage]++
	}
	for _, want := range []CommitStage{CommitStagePrepared, CommitStageValidated, CommitStagePublished} {
		if seen[want] != 1 {
			t.Fatalf("stage %v fired %d times, want 1 (stages: %v)", want, seen[want], seen)
		}
	}

	// Two oracles: the state before the transaction, and the state after
	// (setup plus the transaction's statements applied serially — replay
	// preserves node ids, so the stores must match byte for byte).
	oraclePre := New(Config{BufferPoolBytes: 4 << 20})
	for _, op := range ops {
		applyOp(t, oraclePre, op)
	}
	oraclePost := New(Config{BufferPoolBytes: 4 << 20})
	for _, op := range append(append([]torOp{}, ops...), txOps...) {
		applyOp(t, oraclePost, op)
	}
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = genQueryFor(rng, oraclePost.Store().Docs[0])
	}

	for i, img := range images {
		crashPath := filepath.Join(dir, fmt.Sprintf("txstage%d-%d.db", img.stage, i))
		if err := os.WriteFile(crashPath, img.db, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashPath+storage.WALSuffix, img.wal, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(Config{Path: crashPath, BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatalf("stage %v: reopen: %v", img.stage, err)
		}
		tag := fmt.Sprintf("tx commit stage %v", img.stage)
		oracle := oraclePre
		if img.stage == CommitStagePublished {
			// Only after publication may (and must) the transaction be
			// visible: every statement, or the stage hook fired too early.
			oracle = oraclePost
		}
		verifyRecovered(t, tag, rec, oracle, queries)

		// The image must accept new work after recovery.
		parents, _ := liveNodeIDs(rec)
		extra := torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 5)}
		applyOp(t, rec, extra)
		applyOp(t, oracle, extra)
		verifyRecovered(t, tag+" +insert", rec, oracle, queries[:2])
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: close: %v", tag, err)
		}
		// Rebuild the mutated oracle for the next image.
		if img.stage == CommitStagePublished {
			oraclePost = New(Config{BufferPoolBytes: 4 << 20})
			for _, op := range append(append([]torOp{}, ops...), txOps...) {
				applyOp(t, oraclePost, op)
			}
		} else {
			oraclePre = New(Config{BufferPoolBytes: 4 << 20})
			for _, op := range ops {
				applyOp(t, oraclePre, op)
			}
		}
	}
}
