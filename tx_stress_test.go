package twigdb_test

// Serialization-anomaly stress harness (satellite of the optimistic
// transaction work; run under -race by `make race`).
//
// The workload is a "token slot" protocol that makes lost updates and
// partial states observable from inside the database: every document
// holds exactly one <slot> child at all times, and each transaction reads
// the slot, deletes it, inserts a replacement, and appends one <t/> tick
// marker. Under any serial order the invariants are
//
//	count(/d/slot) == 1          (a lost update leaves 0 or 2)
//	count(/d/t)    == commits    (an atomicity break loses or doubles ticks)
//	count(slot)    == 1 at read  (a dirty/partial state shows 0 or 2)
//
// Phase 1 runs writers on disjoint documents — every commit must succeed
// with zero conflicts. Phase 2 runs all writers on one shared document
// with per-round barriers so every round's transactions share a base
// version: first-committer-wins guarantees conflicts, and the harness
// retries them on fresh transactions until each logical update commits.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	twigdb "repro"
)

const (
	anomalyWriters = 4
	anomalyRounds  = 12
)

// slotUpdate performs one logical update inside tx: swap the slot token
// and append a tick. Returns an error for real failures; reports an
// anomaly (fatal) if the transaction's view violates the slot invariant.
func slotUpdate(t *testing.T, tx *twigdb.Tx, docPath string, rootID int64, tag string) error {
	t.Helper()
	res, err := tx.Query(docPath + `/slot`)
	if err != nil {
		return err
	}
	if res.Count() != 1 {
		t.Errorf("%s: transaction observed %d slots, want 1 (partial or lost state)", tag, res.Count())
		return fmt.Errorf("anomaly")
	}
	if err := tx.Delete(res.IDs[0]); err != nil {
		return err
	}
	if _, err := tx.Insert(rootID, `<slot><n>`+tag+`</n></slot>`); err != nil {
		return err
	}
	_, err = tx.Insert(rootID, `<t/>`)
	return err
}

func TestTxSerializationAnomalies(t *testing.T) {
	db, err := twigdb.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	roots := make([]int64, anomalyWriters)
	for w := 0; w < anomalyWriters; w++ {
		if err := db.LoadXMLString(fmt.Sprintf(`<d%d><slot><n>seed</n></slot></d%d>`, w, w)); err != nil {
			t.Fatal(err)
		}
	}
	// The shared document for phase 2 must be loaded before Build so the
	// indices cover it.
	if err := db.LoadXMLString(`<sh><slot><n>seed</n></slot></sh>`); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < anomalyWriters; w++ {
		res, err := db.Query(fmt.Sprintf(`/d%d`, w))
		if err != nil || res.Count() != 1 {
			t.Fatalf("/d%d: %v %v", w, res, err)
		}
		roots[w] = res.IDs[0]
	}

	// ---- Phase 1: disjoint documents; no transaction may conflict. ----
	base := db.TxStats()
	var wg sync.WaitGroup
	errs := make([]error, anomalyWriters)
	for w := 0; w < anomalyWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			docPath := fmt.Sprintf(`/d%d`, w)
			for r := 0; r < anomalyRounds; r++ {
				tx := db.Begin()
				tag := fmt.Sprintf("disjoint w%d r%d", w, r)
				if err := slotUpdate(t, tx, docPath, roots[w], tag); err != nil {
					tx.Rollback()
					errs[w] = fmt.Errorf("%s: %w", tag, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = fmt.Errorf("%s: commit: %w", tag, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := db.TxStats().Conflicts - base.Conflicts; d != 0 {
		t.Fatalf("disjoint phase raised %d conflicts, want 0", d)
	}
	for w := 0; w < anomalyWriters; w++ {
		slots, err := db.Query(fmt.Sprintf(`/d%d/slot`, w))
		if err != nil || slots.Count() != 1 {
			t.Fatalf("doc %d: %d slots after disjoint phase (lost update), err %v", w, slots.Count(), err)
		}
		ticks, err := db.Query(fmt.Sprintf(`/d%d/t`, w))
		if err != nil || ticks.Count() != anomalyRounds {
			t.Fatalf("doc %d: %d ticks, want %d (lost or doubled commit), err %v",
				w, ticks.Count(), anomalyRounds, err)
		}
	}

	// ---- Phase 2: one shared document; conflicts are expected and must
	// be retried without ever publishing a wrong state. ----
	res, err := db.Query(`/sh`)
	if err != nil || res.Count() != 1 {
		t.Fatalf("/sh: %v %v", res, err)
	}
	sharedRoot := res.IDs[0]

	var committed, conflicted atomic.Int64
	base = db.TxStats()
	for r := 0; r < anomalyRounds; r++ {
		// All of the round's transactions begin against the same version.
		txs := make([]*twigdb.Tx, anomalyWriters)
		for w := range txs {
			txs[w] = db.Begin()
		}
		var wg sync.WaitGroup
		errs := make([]error, anomalyWriters)
		for w := 0; w < anomalyWriters; w++ {
			wg.Add(1)
			go func(w int, tx *twigdb.Tx) {
				defer wg.Done()
				for attempt := 0; ; attempt++ {
					tag := fmt.Sprintf("shared w%d r%d a%d", w, r, attempt)
					if err := slotUpdate(t, tx, `/sh`, sharedRoot, tag); err != nil {
						tx.Rollback()
						errs[w] = fmt.Errorf("%s: %w", tag, err)
						return
					}
					err := tx.Commit()
					if err == nil {
						committed.Add(1)
						return
					}
					if !errors.Is(err, twigdb.ErrConflict) {
						errs[w] = fmt.Errorf("%s: non-conflict commit error: %w", tag, err)
						return
					}
					// The database is untouched; retry the whole body on a
					// fresh base.
					conflicted.Add(1)
					if attempt > 50*anomalyWriters {
						errs[w] = fmt.Errorf("%s: livelock: %d attempts", tag, attempt)
						return
					}
					tx = db.Begin()
				}
			}(w, txs[w])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Post-hoc oracle: the final state must be reachable by some serial
	// order of exactly the committed updates.
	wantCommits := int64(anomalyWriters * anomalyRounds)
	if got := committed.Load(); got != wantCommits {
		t.Fatalf("%d committed updates, want %d", got, wantCommits)
	}
	slots, err := db.Query(`/sh/slot`)
	if err != nil || slots.Count() != 1 {
		t.Fatalf("shared doc: %d slots (lost update), err %v", slots.Count(), err)
	}
	ticks, err := db.Query(`/sh/t`)
	if err != nil || int64(ticks.Count()) != wantCommits {
		t.Fatalf("shared doc: %d ticks, want %d (every committed update exactly once), err %v",
			ticks.Count(), wantCommits, err)
	}
	// First-committer-wins with a shared base every round makes conflicts
	// structurally unavoidable.
	if conflicted.Load() == 0 {
		t.Fatalf("shared phase saw zero conflicts; the barrier is not forcing overlap")
	}
	if d := db.TxStats().Conflicts - base.Conflicts; d < conflicted.Load() {
		t.Fatalf("conflict counter %d below observed conflicts %d", d, conflicted.Load())
	}
	// The surviving slot's tag must be one a writer actually wrote (with
	// commits > 0 the seed token cannot survive any serial order).
	final, err := db.Query(`/sh/slot/n`)
	if err != nil || final.Count() != 1 {
		t.Fatalf("slot tag: %v %v", final, err)
	}
	nodes, err := final.Nodes()
	if err != nil || len(nodes) != 1 || !strings.HasPrefix(nodes[0].Value, "shared w") {
		t.Fatalf("final slot tag %+v is not a committed writer's token", nodes)
	}
}
