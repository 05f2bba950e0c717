package twigdb_test

// Every public read method goes through one helper onto the engine's one
// query path, so each must behave alike where the former per-method copies
// had drifted: the Result names the version that answered, the read is
// counted once (the Oracle, which runs no plan, never), and a finished
// transaction refuses every read.

import (
	"errors"
	"slices"
	"testing"

	twigdb "repro"
)

func TestEveryReadMethodTakesTheOnePath(t *testing.T) {
	db, rootID := openTxDB(t, &twigdb.Options{RetainSnapshots: 4})
	const q = `/inv/item[sku]`
	preSeq := db.CurrentSeq()
	if _, err := db.Insert(rootID, `<item><sku>B</sku></item>`); err != nil {
		t.Fatal(err)
	}
	curSeq := db.CurrentSeq()
	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert(rootID, `<item><sku>C</sku></item>`); err != nil {
		t.Fatal(err)
	}

	reads := []struct {
		name    string
		read    func() (*twigdb.Result, error)
		seq     uint64
		matches int
		counted int64
		traced  bool
	}{
		{"Query", func() (*twigdb.Result, error) { return db.Query(q) }, curSeq, 2, 1, false},
		{"QueryWith/pinned", func() (*twigdb.Result, error) { return db.QueryWith(twigdb.StrategyRootPaths, q) }, curSeq, 2, 1, false},
		{"QueryWith/oracle", func() (*twigdb.Result, error) { return db.QueryWith(twigdb.Oracle, q) }, curSeq, 2, 0, false},
		{"ExplainAnalyze", func() (*twigdb.Result, error) { return db.ExplainAnalyze(twigdb.Auto, q) }, curSeq, 2, 1, true},
		{"QueryAsOf", func() (*twigdb.Result, error) { return db.QueryAsOf(q, preSeq) }, preSeq, 1, 1, false},
		{"Tx.Query", func() (*twigdb.Result, error) { return tx.Query(q) }, curSeq, 3, 1, false},
		{"Tx.QueryWith/pinned", func() (*twigdb.Result, error) { return tx.QueryWith(twigdb.StrategyDataPaths, q) }, curSeq, 3, 1, false},
		{"Tx.QueryWith/oracle", func() (*twigdb.Result, error) { return tx.QueryWith(twigdb.Oracle, q) }, curSeq, 3, 0, false},
	}
	for _, r := range reads {
		before, latBefore := db.QueryStats().Queries, db.Metrics().QueryLatency.Count
		res, err := r.read()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Count() != r.matches {
			t.Errorf("%s: %d matches, want %d", r.name, res.Count(), r.matches)
		}
		if res.SnapshotSeq != r.seq {
			t.Errorf("%s: SnapshotSeq = %d, want %d", r.name, res.SnapshotSeq, r.seq)
		}
		if (res.Trace != nil) != r.traced {
			t.Errorf("%s: trace present = %v, want %v", r.name, res.Trace != nil, r.traced)
		}
		if d := db.QueryStats().Queries - before; d != r.counted {
			t.Errorf("%s: QueryStats.Queries moved by %d, want %d", r.name, d, r.counted)
		}
		if d := db.Metrics().QueryLatency.Count - latBefore; d != r.counted {
			t.Errorf("%s: latency histogram took %d observations, want %d", r.name, d, r.counted)
		}
	}

	// Sources agree with their own oracle, not each other's.
	in, err := tx.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	inOracle, err := tx.QueryWith(twigdb.Oracle, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(in.IDs, inOracle.IDs) {
		t.Errorf("tx view: planner %v, oracle %v", in.IDs, inOracle.IDs)
	}

	tx.Rollback()
	for _, strat := range []twigdb.Strategy{twigdb.Auto, twigdb.StrategyRootPaths, twigdb.Oracle} {
		if _, err := tx.QueryWith(strat, q); !errors.Is(err, twigdb.ErrTxDone) {
			t.Errorf("%v read on a finished Tx: err = %v, want ErrTxDone", strat, err)
		}
	}
}
