package twigdb_test

// Public transaction API: multi-statement atomicity through the twigdb
// wrappers, errors.Is-matchable sentinels, Update's retry loop, AS OF
// time-travel reads, and the transaction counters in QueryStats/TxStats
// and the Prometheus exposition.

import (
	"errors"
	"strings"
	"testing"

	twigdb "repro"
)

func openTxDB(t *testing.T, opts *twigdb.Options) (*twigdb.DB, int64) {
	t.Helper()
	db, err := twigdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.LoadXMLString(`<inv><item><sku>A</sku></item></inv>`); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`/inv`)
	if err != nil || res.Count() != 1 {
		t.Fatalf("/inv: %v %v", res, err)
	}
	return db, res.IDs[0]
}

func TestTxPublicAPI(t *testing.T) {
	db, rootID := openTxDB(t, &twigdb.Options{RetainSnapshots: 4})

	preSeq := db.CurrentSeq()
	tx := db.Begin()
	defer tx.Rollback()
	id, err := tx.Insert(rootID, `<item><sku>B</sku></item>`)
	if err != nil {
		t.Fatal(err)
	}
	if id <= 0 {
		t.Fatalf("inserted id = %d", id)
	}
	// Isolation both ways.
	in, err := tx.Query(`/inv/item[sku='B']`)
	if err != nil || in.Count() != 1 {
		t.Fatalf("tx view: %v %v", in, err)
	}
	out, err := db.Query(`/inv/item[sku='B']`)
	if err != nil || out.Count() != 0 {
		t.Fatalf("uncommitted write visible outside: %v %v", out, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(`/inv/item[sku='B']`)
	if err != nil || after.Count() != 1 {
		t.Fatalf("after commit: %v %v", after, err)
	}
	if _, err := tx.Insert(rootID, `<item/>`); !errors.Is(err, twigdb.ErrTxDone) {
		t.Fatalf("insert on finished tx: %v, want ErrTxDone", err)
	}

	// AS OF: the pre-commit version still answers without the new item.
	old, err := db.QueryAsOf(`/inv/item`, preSeq)
	if err != nil {
		t.Fatalf("QueryAsOf(%d): %v", preSeq, err)
	}
	if old.Count() != 1 {
		t.Fatalf("AS OF %d: %d items, want 1", preSeq, old.Count())
	}
	if old.SnapshotSeq != preSeq {
		t.Fatalf("SnapshotSeq = %d, want %d", old.SnapshotSeq, preSeq)
	}
	if now, err := db.Query(`/inv/item`); err != nil || now.Count() != 2 {
		t.Fatalf("current: %v %v", now, err)
	}
	if now, err := db.QueryAsOf(`/inv/item`, db.CurrentSeq()); err != nil || now.Count() != 2 {
		t.Fatalf("AS OF current: %v %v", now, err)
	}
	// Conflict through the public wrappers, errors.Is-matchable.
	tx1, tx2 := db.Begin(), db.Begin()
	defer tx1.Rollback()
	defer tx2.Rollback()
	if _, err := tx1.Insert(rootID, `<item><sku>C</sku></item>`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Insert(rootID, `<item><sku>D</sku></item>`); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, twigdb.ErrConflict) {
		t.Fatalf("overlapping commit: %v, want ErrConflict", err)
	}
	if leaked, err := db.Query(`/inv/item[sku='D']`); err != nil || leaked.Count() != 0 {
		t.Fatalf("conflicted write leaked: %v %v", leaked, err)
	}

	// Slide the retention window (4 versions) past preSeq with more
	// commits; the old version must then be retired.
	for i := 0; i < 6; i++ {
		if _, err := db.Insert(rootID, `<pad/>`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.QueryAsOf(`/inv/item`, preSeq); !errors.Is(err, twigdb.ErrSnapshotRetired) {
		t.Fatalf("AS OF evicted seq %d: %v, want ErrSnapshotRetired", preSeq, err)
	}

	st := db.TxStats()
	if st.Commits < 2 {
		t.Fatalf("TxStats.Commits = %d, want >= 2", st.Commits)
	}
	if st.Conflicts < 1 {
		t.Fatalf("TxStats.Conflicts = %d, want >= 1", st.Conflicts)
	}
	if st.RetainedSnapshots < 1 || st.RetainedSnapshots > 4 {
		t.Fatalf("TxStats.RetainedSnapshots = %d, want 1..4", st.RetainedSnapshots)
	}
}

func TestUpdateRetryPublicAPI(t *testing.T) {
	db, rootID := openTxDB(t, nil)

	attempts := 0
	err := db.Update(func(tx *twigdb.Tx) error {
		attempts++
		if attempts == 1 {
			// An implicit single-statement write commits in between,
			// invalidating this transaction's base.
			if _, err := db.Insert(rootID, `<item><sku>X</sku></item>`); err != nil {
				return err
			}
		}
		_, err := tx.Insert(rootID, `<item><sku>Y</sku></item>`)
		return err
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("closure ran %d times, want 2", attempts)
	}
	for _, sku := range []string{"X", "Y"} {
		res, err := db.Query(`/inv/item[sku='` + sku + `']`)
		if err != nil || res.Count() != 1 {
			t.Fatalf("sku %s: %v %v (lost or doubled update)", sku, res, err)
		}
	}
	if st := db.TxStats(); st.Retries < 1 {
		t.Fatalf("TxStats.Retries = %d, want >= 1", st.Retries)
	}
}

func TestTxMetricsExposition(t *testing.T) {
	db, rootID := openTxDB(t, &twigdb.Options{RetainSnapshots: 2})

	// One committed transaction and one conflicted pair.
	if err := db.Update(func(tx *twigdb.Tx) error {
		_, err := tx.Insert(rootID, `<item><sku>M</sku></item>`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx1, tx2 := db.Begin(), db.Begin()
	tx1.Insert(rootID, `<a/>`)
	tx2.Insert(rootID, `<b/>`)
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, twigdb.ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}

	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"twigdb_tx_commits_total",
		"twigdb_tx_conflicts_total",
		"twigdb_tx_retries_total",
		"twigdb_retained_snapshots",
		"twigdb_txn_latency_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("metrics exposition missing %s:\n%s", name, out)
		}
	}
}
