package plan_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xpath"
)

// statsEqual compares the counter fields two runs of the same plan must
// agree on (Plan, the executed view, is a fresh tree per run).
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

// TestSharedTreeConcurrentExecution is the shared-cached-plan regression
// test: one immutable plan tree (as the engine's plan cache hands out)
// executed from many goroutines at once must produce identical ids and
// identical per-run counters on every execution. The regression it guards:
// per-run state (actual cardinalities, operator counters, output blocks)
// used to live on the plan nodes themselves, so two queries hitting the
// same cached plan raced and cross-contaminated results. Run under -race
// in CI.
func TestSharedTreeConcurrentExecution(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	cases := []struct {
		q     string
		strat plan.Strategy
	}{
		{`//item[incategory/@category = 'c1'][quantity = '2']`, plan.DataPathsPlan},
		{`//author[fn = 'jane'][ln = 'doe']`, plan.RootPathsPlan},
		{`/site//item[quantity = 2]`, plan.ASRPlan},
		{`//open_auction[bidder/@increase = '3.00']/time`, plan.DataPathsPlan},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%v/%s", tc.strat, tc.q), func(t *testing.T) {
			pat := xpath.MustParse(tc.q)
			tree, err := plan.Build(env, tc.strat, pat)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, wantES, err := plan.ExecuteTree(env, tree)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines, iters = 8, 20
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						ids, es, err := plan.ExecuteTree(env, tree)
						if err != nil {
							errs <- err
							return
						}
						if !idsEqual(ids, wantIDs) {
							errs <- fmt.Errorf("ids diverged: %v, want %v", ids, wantIDs)
							return
						}
						if !statsEqual(es, wantES) {
							errs <- fmt.Errorf("stats diverged: %+v, want %+v", es, wantES)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestWarmedRunZeroAllocs pins the batched executor's allocation contract:
// a cache-hit query on a memory-resident database — a finalized tree plus a
// warmed runtime from its pool — executes with zero allocations per run.
// Every intermediate block, decode buffer, hash table and iterator is
// reused from the runtime; if this test reports non-zero allocations,
// something on the hot path regressed to per-row or per-probe allocation.
func TestWarmedRunZeroAllocs(t *testing.T) {
	db := buildDB(t, auctionXML, bookXML)
	env := db.Env()
	queries := []struct {
		name string
		q    string
	}{
		{"hash-join", `//author[fn = 'jane'][ln = 'doe']`},
		{"single-branch", `//item/quantity[. = 2]`},
		{"three-branch", `//item[incategory/@category = 'c1'][quantity = '2']`},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			pat := xpath.MustParse(tc.q)
			tree, err := plan.Build(env, plan.DataPathsPlan, pat)
			if err != nil {
				t.Fatal(err)
			}
			assertWarmedZeroAllocs(t, env, plan.HoldRuntime(tree), false)
		})
	}
	runExecutorPathCases(t, false)
}

// assertWarmedZeroAllocs warms a held runtime — the first runs size its
// blocks and buffers — and requires the runs after that to allocate nothing.
func assertWarmedZeroAllocs(t *testing.T, env *plan.Env, run func(*plan.Env, bool) ([]int64, error), trace bool) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if _, err := run(env, trace); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := run(env, trace); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed run (trace=%v) allocated %.1f objects/run, want 0", trace, allocs)
	}
}

// TestWarmedRunAllocRatchet extends the allocation contract to all eight
// pinned strategies as a ratchet: warmed objects/run on the executor-path
// queries may not rise above what was measured when every probe started
// drawing its prefix and iterator from the evaluator's index.Scratch (under
// the race detector, which reads a few objects higher than a plain build).
// ROOTPATHS and DATAPATHS stay at exactly zero. What is left for the
// baselines is the B+-tree point lookup behind Edge.Parent and the
// per-probe result slice of MatchingPaths. In the comments: the same
// measurement one commit earlier.
func TestWarmedRunAllocRatchet(t *testing.T) {
	db := buildDB(t, nestedMailXML())
	env := db.Env()
	for _, tc := range []struct {
		q       string
		ceiling [8]float64 // by strategy: RP DP Edge DG+Edge IF+Edge ASR JI XRel+Edge
	}{
		{`//site//item[quantity = '2']`, [8]float64{0, 0, 120, 108, 107, 2, 4, 107}},              // 0 0 164 148 144 8 46 143
		{`//item[quantity = '2'][mailbox//to]`, [8]float64{0, 0, 24, 33, 32, 4, 7, 32}},           // 0 0 876 889 885 79 88 884
		{`//item[quantity = '2']/mailbox/mail[date]/to`, [8]float64{0, 0, 24, 33, 32, 6, 11, 32}}, // 0 0 324 337 333 184 251 332
	} {
		for i, strat := range branchStrategies {
			tree, err := plan.Build(env, strat, xpath.MustParse(tc.q))
			if err != nil {
				t.Fatal(err)
			}
			run := plan.HoldRuntime(tree)
			for warm := 0; warm < 3; warm++ {
				if _, err := run(env, false); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := run(env, false); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.ceiling[i] {
				t.Errorf("%v: %s: warmed run allocated %.0f objects/run, ceiling %.0f", strat, tc.q, allocs, tc.ceiling[i])
			}
		}
	}
}

// nestedMailXML is the fixture of the executor-path cases: 40 items under
// site/regions/zone, each with two mails of two recipients, so that an
// interior // has schema paths to enumerate, bound probes have groups of
// several rows, and a join on mail fans every left row out over two `to`s.
func nestedMailXML() string {
	var b strings.Builder
	b.WriteString("<site><regions><zone>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "<item><quantity>%d</quantity><mailbox>", i%5)
		for m := 0; m < 2; m++ {
			fmt.Fprintf(&b, "<mail><date>d%d</date><to>a</to><to>b</to></mail>", m)
		}
		b.WriteString("</mailbox></item>")
	}
	b.WriteString("</zone></regions></site>")
	return b.String()
}

// runExecutorPathCases holds the two executor paths that are not on every
// query's way to the zero-allocation contract, and checks each case really
// takes the path it names: (a) a non-simple pattern, whose rows bind through
// the schema-match enumeration — as a free probe on ROOTPATHS and DATAPATHS
// and as the bound probe of an index-nested-loop join; (b) a hash join whose
// output keeps three columns and arrives out of order (the hash chains hand
// back each mail's recipients last-first), so DISTINCT has to run its wide
// sort.
func runExecutorPathCases(t *testing.T, trace bool) {
	db := buildDB(t, nestedMailXML())
	env := db.Env()
	for _, tc := range []struct {
		name                      string
		strat                     plan.Strategy
		q                         string
		enumerates, inl, wideSort bool
	}{
		{"non-simple-free/rp", plan.RootPathsPlan, `//site//item[quantity = '2']`, true, false, false},
		{"non-simple-free/dp", plan.DataPathsPlan, `//site//item[quantity = '2']`, true, false, false},
		{"non-simple-bound/dp", plan.DataPathsPlan, `//item[quantity = '2'][mailbox//to]`, true, true, false},
		{"wide-unsorted-join/rp", plan.RootPathsPlan, `//item[quantity = '2']/mailbox/mail[date]/to`, false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := plan.Build(env, tc.strat, xpath.MustParse(tc.q))
			if err != nil {
				t.Fatal(err)
			}
			if inl := strings.Contains(tree.Render(), "inl-join"); inl != tc.inl {
				t.Fatalf("plan has an inl-join: %v, want %v\n%s", inl, tc.inl, tree.Render())
			}
			run, observed := plan.HoldRuntimeObserved(tree)
			assertWarmedZeroAllocs(t, env, run, trace)
			if enumerated, wideSort := observed(); enumerated != tc.enumerates || wideSort != tc.wideSort {
				t.Errorf("run enumerated schema matches: %v (want %v), sorted a wide block: %v (want %v)",
					enumerated, tc.enumerates, wideSort, tc.wideSort)
			}
		})
	}
}

// TestBatchedBlockBoundary drives intermediate relations across the
// BlockRows growth quantum — 3 * BlockRows rows under one parent — through
// every path that builds one, checked against the naive matcher for row loss
// or corruption at block boundaries. Two hazards are particular to blocks: a
// row(i) slice dies when newRow grows the same block (so a step reads one
// ping-pong block and writes the other), and an in-place filter relies on
// its write cursor never passing its read cursor. The inputs, by the path
// they are here for:
//
//   - probe, hash join, dedup on RP/DP: /r/it[k = 'y'];
//   - the Edge top-down walk and the leaf-then-climb of DG/IF/XRel: /r/it/k;
//   - the Edge bottom-up walk with its in-place anchor filter, the DG value
//     semi-join, the JI upward composition in free: /r/it/k[. = 'n'];
//   - a // step expansion, top-down and bottom-up: /r//k, /r//k[. = 'n'];
//   - one bound probe whose single group outgrows a block — the Edge walk
//     with its in-place value filter, the JI downward composition in bound,
//     the ASR and DP group appends: /r[flag = '1']/it/k[. = 'n'] and, through
//     a // step, /r[flag = '1']//k.
func TestBatchedBlockBoundary(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r><flag>1</flag>")
	// 3 * BlockRows rows in the probed branch; every third leaf matches.
	for i := 0; i < 3*plan.BlockRows; i++ {
		v := "n"
		if i%3 == 0 {
			v = "y"
		}
		fmt.Fprintf(&b, "<it><k>%s</k></it>", v)
	}
	b.WriteString("</r>")
	// The decoy loads first: its r is no document root, so a bottom-up walk
	// binds it and the anchor filter's first act is to drop a row, shifting
	// every row behind it.
	db := buildDB(t, `<x><r><it><k>n</k></it></r></x>`, b.String())
	env := db.Env()
	for _, tc := range []struct {
		q   string
		inl bool // every strategy with a bound access path must take it
	}{
		{`/r/it[k = 'y']`, false},
		{`/r/it/k`, false},
		{`/r/it/k[. = 'n']`, false},
		{`/r//k`, false},
		{`/r//k[. = 'n']`, false},
		{`/r[flag = '1']/it/k[. = 'n']`, true},
		{`/r[flag = '1']//k`, true},
	} {
		pat := xpath.MustParse(tc.q)
		want := naive.Match(db.Store(), pat)
		if len(want) < plan.BlockRows {
			t.Fatalf("%s: %d matches do not fill a block", tc.q, len(want))
		}
		for _, strat := range branchStrategies {
			tree, err := plan.Build(env, strat, pat)
			if err != nil {
				t.Fatalf("%v: %s: %v", strat, tc.q, err)
			}
			if inl := strings.Contains(tree.Render(), "inl-join"); inl != (tc.inl && strat != plan.RootPathsPlan) {
				t.Fatalf("%v: %s: plan has an inl-join: %v\n%s", strat, tc.q, inl, tree.Render())
			}
			ids, _, err := plan.ExecuteTree(env, tree)
			if err != nil {
				t.Fatalf("%v: %s: %v", strat, tc.q, err)
			}
			if !idsEqual(ids, want) {
				t.Errorf("%v: %s: %d ids across block boundary, naive matcher has %d", strat, tc.q, len(ids), len(want))
			}
		}
	}
}
