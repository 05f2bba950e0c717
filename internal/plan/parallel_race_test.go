package plan_test

import (
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/xpath"
)

// statsEqual compares the counter fields that must be identical between a
// serial and a parallel run of the same plan (Parallel and Plan are
// expected to differ).
func statsEqual(a, b *plan.ExecStats) bool {
	return a.IndexLookups == b.IndexLookups &&
		a.RowsScanned == b.RowsScanned &&
		a.INLProbes == b.INLProbes &&
		a.UsedINL == b.UsedINL &&
		a.RelationsUsed == b.RelationsUsed &&
		a.Join.TuplesIn == b.Join.TuplesIn &&
		a.Join.TuplesOut == b.Join.TuplesOut &&
		a.BranchesJoined == b.BranchesJoined
}

// TestParallelExecStatsMatchSerial asserts that a fanned-out run produces
// exactly a serial run's per-query counters — no lost or double-counted
// operator rows from the branch fan-out — and the same ids.
// The regression it guards: branch goroutines used to write their counters
// straight into the shared plan nodes; they now fill private slots merged
// after the barrier. Run under -race in CI, with several trees executing
// concurrently to surface cross-goroutine writes.
func TestParallelExecStatsMatchSerial(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	queries := []string{
		`//item[location = 'france']/quantity`,
		`//item[incategory/@category = 'c1'][quantity = '2']`,
		`/site/people/person[profile/@income = '100']/name`,
		`//open_auction[bidder/@increase = '3.00']/time`,
		`//author[fn = 'jane'][ln = 'doe']`,
		`/book[title='XML']//author[fn='jane' and ln='doe']`,
		`/site/regions//item[location = 'united states']`,
	}
	strategies := []plan.Strategy{
		plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan,
		plan.DataGuideEdgePlan, plan.ASRPlan, plan.XRelPlan,
	}

	type run struct {
		q     string
		strat plan.Strategy
		ids   []int64
		es    *plan.ExecStats
	}
	var serial []run
	env := db.Env()
	for _, q := range queries {
		pat := xpath.MustParse(q)
		for _, strat := range strategies {
			// Serial reference with INL disabled, exactly as a read that
			// will fan out plans (the fan-out materialises every branch).
			penv := *env
			penv.INLFactor = -1
			ids, es, err := execute(&penv, strat, pat)
			if err != nil {
				t.Fatalf("%v: %s: %v", strat, q, err)
			}
			serial = append(serial, run{q: q, strat: strat, ids: ids, es: es})
		}
	}

	// Parallel runs, many trees in flight at once.
	var wg sync.WaitGroup
	errs := make(chan error, len(serial))
	mismatches := make(chan string, len(serial))
	for _, ref := range serial {
		ref := ref
		wg.Add(1)
		go func() {
			defer wg.Done()
			pat := xpath.MustParse(ref.q)
			penv := *env
			penv.INLFactor = -1
			tree, err := plan.Build(&penv, ref.strat, pat)
			if err != nil {
				errs <- err
				return
			}
			ids, es, err := plan.Run(env, tree, 4, false)
			if err != nil {
				errs <- err
				return
			}
			if !idsEqual(ids, ref.ids) {
				mismatches <- ref.q + " ids diverged under " + ref.strat.String()
				return
			}
			if !statsEqual(es, ref.es) {
				mismatches <- ref.q + " ExecStats diverged under " + ref.strat.String()
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(mismatches)
	for err := range errs {
		t.Error(err)
	}
	for m := range mismatches {
		t.Error(m)
	}
}

// TestParallelTreeSingleExecutionCounters: executing a planner-built tree
// with four workers twice (reset + rerun) must not accumulate counters
// across runs.
func TestParallelTreeSingleExecutionCounters(t *testing.T) {
	db := buildDB(t, auctionXML)
	env := db.Env()
	pat := xpath.MustParse(`//item[incategory/@category = 'c1'][quantity = '2']`)
	penv := *env
	penv.INLFactor = -1
	tree, err := plan.Build(&penv, plan.DataPathsPlan, pat)
	if err != nil {
		t.Fatal(err)
	}
	ids1, es1, err := plan.Run(env, tree, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	ids2, es2, err := plan.Run(env, tree, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(ids1, ids2) {
		t.Fatalf("rerun ids diverged: %v vs %v", ids1, ids2)
	}
	if !statsEqual(es1, es2) {
		t.Fatalf("rerun accumulated counters: %+v vs %+v", es1, es2)
	}
}
