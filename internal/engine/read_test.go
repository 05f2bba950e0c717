package engine

// The one query path (query.go) under every combination of its arguments:
// three snapshot sources × three planners × traced or not. Whatever the combination, a read must answer like the naive matcher
// on the snapshot it was given, report that snapshot's sequence number,
// carry a trace exactly when asked to, and be observed and counted exactly
// once — the properties the per-entry-point forks had drifted apart on.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

const readXML = `
<site>
 <people>
  <person id="p1"><name>ann</name><city>oslo</city></person>
  <person id="p2"><name>bob</name><city>oslo</city></person>
 </people>
</site>`

// readSource is one of run's three callers with what the test expects of
// it: the store the oracle matches against and the sequence number every
// result must carry.
type readSource struct {
	name  string
	read  func(*xpath.Pattern, ReadOpts) (ReadResult, error)
	store *xmldb.Store
	seq   uint64
}

// readSources builds a database whose current version, one retained older
// version and one open transaction's view all answer the test's queries
// differently (two, three and four oslo residents), so a read served from
// the wrong snapshot cannot pass.
func readSources(t *testing.T, cfg Config) (*DB, []readSource) {
	t.Helper()
	cfg.BufferPoolBytes = 4 << 20
	cfg.RetainSnapshots = 4
	db := New(cfg)
	doc, err := xmldb.ParseString(readXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	// The two incrementally maintained indices: they survive the updates
	// below, in the published versions and in the transaction's successor.
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	people := doc.Root.Children[0].ID
	person := func(name string) *xmldb.Node {
		return mustSub(t, fmt.Sprintf(`<person><name>%s</name><city>oslo</city></person>`, name))
	}

	old, release, err := db.SnapshotAt(db.CurrentSeq())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	if err := db.InsertSubtree(people, person("cyd")); err != nil {
		t.Fatal(err)
	}
	cur := db.CurrentSnapshot()
	tx := db.Begin()
	t.Cleanup(tx.Rollback)
	if err := tx.Insert(people, person("dan")); err != nil {
		t.Fatal(err)
	}
	return db, []readSource{
		{"current", db.Read, cur.store, cur.seq},
		{"as-of", func(p *xpath.Pattern, o ReadOpts) (ReadResult, error) {
			return db.ReadAsOf(old.seq, p, o)
		}, old.store, old.seq},
		{"tx", tx.Read, tx.snapshot().store, tx.BaseSeq()},
	}
}

func TestReadMatrix(t *testing.T) {
	db, sources := readSources(t, Config{})
	planners := []struct {
		name string
		opts ReadOpts
	}{
		{"RP", ReadOpts{Strategy: plan.RootPathsPlan}},
		{"DP", ReadOpts{Strategy: plan.DataPathsPlan}},
		{"auto", ReadOpts{Planner: Auto}},
		{"oracle", ReadOpts{Planner: Oracle}},
	}
	// A single path and two twigs; the last one tells the sources apart.
	queries := []string{`//person/name`, `/site/people/person[city = 'oslo'][name]/@id`, `//person[city = 'oslo']`}
	wantSizes := map[string]int{"as-of": 2, "current": 3, "tx": 4}

	for _, src := range sources {
		for _, pl := range planners {
			for _, trace := range []bool{false, true} {
				opts := pl.opts
				opts.Trace = trace
				name := fmt.Sprintf("%s/%s/trace=%v", src.name, pl.name, trace)
				t.Run(name, func(t *testing.T) {
					for _, q := range queries {
						pat := xpath.MustParse(q)
						want := naive.Match(src.store, pat)
						if q == queries[2] && len(want) != wantSizes[src.name] {
							t.Fatalf("%s: oracle sees %d residents, want %d — sources do not differ", q, len(want), wantSizes[src.name])
						}
						before, latBefore := db.QueryCounters(), db.Obs().QueryLatency.Snapshot()
						res, err := src.read(pat, opts)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						after, lat := db.QueryCounters(), db.Obs().QueryLatency.Snapshot().Sub(latBefore)
						if !equalIDs(res.IDs, want) {
							t.Errorf("%s: ids %v, naive matcher on this snapshot has %v", q, res.IDs, want)
						}
						if res.Seq != src.seq {
							t.Errorf("%s: Seq = %d, want %d", q, res.Seq, src.seq)
						}
						counted := int64(1)
						if opts.Planner == Oracle {
							counted = 0
							if res.Stats != nil {
								t.Errorf("%s: Oracle read carries plan stats", q)
							}
						} else {
							if got := res.Stats.Plan.Traced; got != trace {
								t.Errorf("%s: traced view = %v, asked for %v", q, got, trace)
							}
							if opts.Planner == Pinned && res.Strategy != opts.Strategy {
								t.Errorf("%s: ran %v, pinned %v", q, res.Strategy, opts.Strategy)
							}
						}
						if d := after.Queries - before.Queries; d != counted {
							t.Errorf("%s: query counter moved by %d, want %d", q, d, counted)
						}
						if lat.Count != counted {
							t.Errorf("%s: latency histogram took %d observations, want %d", q, lat.Count, counted)
						}
					}
				})
			}
		}
	}

	// Every source keeps its own plan cache warm: by now each pattern has
	// been planned, so one more Auto read is a hit.
	for _, src := range sources {
		before := db.QueryCounters().PlanCacheHits
		if _, err := src.read(xpath.MustParse(queries[0]), ReadOpts{Planner: Auto}); err != nil {
			t.Fatal(err)
		}
		if d := db.QueryCounters().PlanCacheHits - before; d != 1 {
			t.Errorf("%s: repeated Auto read moved plan-cache hits by %d, want 1", src.name, d)
		}
	}
}

// A slow read lands in the slow-query log whichever snapshot served it.
func TestReadSlowQueryLogFromEverySource(t *testing.T) {
	db, sources := readSources(t, Config{SlowQueryThreshold: time.Nanosecond})
	for _, src := range sources {
		before := db.SlowQueryLog().Total()
		if _, err := src.read(xpath.MustParse(`//person/name`), ReadOpts{Planner: Auto}); err != nil {
			t.Fatal(err)
		}
		if d := db.SlowQueryLog().Total() - before; d != 1 {
			t.Errorf("%s: slow-query log grew by %d, want 1", src.name, d)
		}
	}
	entries := db.SlowQueries()
	if last := entries[len(entries)-1]; last.Plan == "" || last.Strategy == "" {
		t.Errorf("slow entry lacks its traced plan: %+v", last)
	}
}

// A read that never gets a plan tree executed nothing: whichever planner
// failed to produce one, it is neither observed nor counted.
func TestReadWithoutPlanIsNotCounted(t *testing.T) {
	db := newDB(t)
	pat := xpath.MustParse(`/site`)
	check := func(what string, opts ReadOpts) {
		t.Helper()
		before, latBefore := db.QueryCounters(), db.Obs().QueryLatency.Snapshot()
		if _, err := db.Read(pat, opts); err == nil {
			t.Fatalf("%s: want error", what)
		}
		if d := db.QueryCounters().Queries - before.Queries; d != 0 {
			t.Errorf("%s: counted %d queries, want 0", what, d)
		}
		if d := db.Obs().QueryLatency.Snapshot().Sub(latBefore).Count; d != 0 {
			t.Errorf("%s: observed %d latencies, want 0", what, d)
		}
	}
	check("auto, no index built", ReadOpts{Planner: Auto})
	if err := db.Build(index.KindRootPaths); err != nil {
		t.Fatal(err)
	}
	check("pinned, index missing", ReadOpts{Strategy: plan.ASRPlan})
}

// A finished transaction refuses every read, the Oracle's included.
func TestReadOnFinishedTx(t *testing.T) {
	db := newDB(t)
	if err := db.Build(index.KindRootPaths); err != nil {
		t.Fatal(err)
	}
	pat := xpath.MustParse(`/site`)
	for _, end := range []string{"commit", "rollback"} {
		tx := db.Begin()
		if end == "commit" {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Rollback()
		}
		for _, opts := range []ReadOpts{
			{Strategy: plan.RootPathsPlan},
			{Planner: Auto},
			{Planner: Oracle},
		} {
			if _, err := tx.Read(pat, opts); !errors.Is(err, ErrTxDone) {
				t.Errorf("read after %s with %+v: err = %v, want ErrTxDone", end, opts, err)
			}
		}
	}
}
