package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

const siteXML = `
<site>
 <people>
  <person id="p1"><name>ann</name></person>
  <person id="p2"><name>bob</name></person>
 </people>
</site>`

func newDB(t *testing.T) *DB {
	t.Helper()
	db := New(Config{BufferPoolBytes: 8 << 20})
	if err := db.LoadXML(strings.NewReader(siteXML)); err != nil {
		t.Fatal(err)
	}
	return db
}

// pinnedIDs is a serial read of the current snapshot under strat.
func pinnedIDs(db *DB, pat *xpath.Pattern, strat plan.Strategy) ([]int64, error) {
	res, err := db.Read(pat, ReadOpts{Strategy: strat})
	return res.IDs, err
}

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	db := newDB(t)
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	pat := xpath.MustParse(`/site/people/person[name='ann']`)
	// First auto query plans; the next two hit the per-pattern cache.
	for i := 0; i < 3; i++ {
		if _, _, _, err := db.QueryPatternBest(pat, 1); err != nil {
			t.Fatal(err)
		}
	}
	if hits := db.QueryCounters().PlanCacheHits; hits != 2 {
		t.Fatalf("plan cache hits = %d, want 2", hits)
	}
	// A syntactically different but equivalent pattern shares the entry.
	if _, _, _, err := db.QueryPatternBest(xpath.MustParse(`/site/people/person[name = 'ann']`), 1); err != nil {
		t.Fatal(err)
	}
	if hits := db.QueryCounters().PlanCacheHits; hits != 3 {
		t.Fatalf("normalised pattern missed the cache: hits = %d, want 3", hits)
	}
	// A structural update invalidates the cache: the next auto query plans
	// afresh (hit counter unchanged), the one after hits again.
	people, err := pinnedIDs(db, xpath.MustParse(`/site/people`), plan.RootPathsPlan)
	if err != nil || len(people) != 1 {
		t.Fatalf("people: %v %v", people, err)
	}
	if err := db.InsertSubtree(people[0], xmldb.Elem("person", xmldb.Text("name", "dan"))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := db.QueryPatternBest(pat, 1); err != nil {
		t.Fatal(err)
	}
	if hits := db.QueryCounters().PlanCacheHits; hits != 3 {
		t.Fatalf("cache not invalidated by insert: hits = %d, want 3", hits)
	}
	if _, _, _, err := db.QueryPatternBest(pat, 1); err != nil {
		t.Fatal(err)
	}
	if hits := db.QueryCounters().PlanCacheHits; hits != 4 {
		t.Fatalf("cache not repopulated: hits = %d, want 4", hits)
	}
}

func TestInsertDeleteMaintainsOracleAgreement(t *testing.T) {
	db := newDB(t)
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	people, err := pinnedIDs(db, xpath.MustParse(`/site/people`), plan.RootPathsPlan)
	if err != nil || len(people) != 1 {
		t.Fatalf("people: %v %v", people, err)
	}
	sub := xmldb.Elem("person", xmldb.Attr("id", "p3"), xmldb.Text("name", "carol"))
	if err := db.InsertSubtree(people[0], sub); err != nil {
		t.Fatal(err)
	}

	check := func(q string) {
		t.Helper()
		pat := xpath.MustParse(q)
		want := naive.Match(db.Store(), pat)
		for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
			got, err := pinnedIDs(db, pat, s)
			if err != nil {
				t.Fatalf("%v %s: %v", s, q, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v %s: %v, oracle %v", s, q, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v %s: %v, oracle %v", s, q, got, want)
				}
			}
		}
	}
	check(`//person[name='carol']`)
	check(`/site/people/person`)

	if err := db.DeleteSubtree(sub.ID); err != nil {
		t.Fatal(err)
	}
	check(`//person[name='carol']`)
	check(`/site/people/person[@id='p1']`)

	// Errors.
	if err := db.InsertSubtree(12345, xmldb.Elem("x")); err == nil {
		t.Fatalf("bad parent: want error")
	}
	if err := db.DeleteSubtree(12345); err == nil {
		t.Fatalf("bad node: want error")
	}
}

func TestSpacesAndPool(t *testing.T) {
	db := newDB(t)
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	// Building the unpersisted containment index adds no ninth entry:
	// Spaces lists the paper's eight structures, in kind order.
	if err := db.Build(index.KindContainment); err != nil {
		t.Fatal(err)
	}
	spaces := db.Spaces()
	if len(spaces) != len(allKinds) {
		t.Fatalf("Spaces = %d entries, want %d", len(spaces), len(allKinds))
	}
	for i, sp := range spaces {
		if sp.Kind != allKinds[i] || sp.Name != allKinds[i].String() || sp.Pages <= 0 {
			t.Fatalf("Spaces[%d] = %+v, want kind %v", i, sp, allKinds[i])
		}
	}
	before := db.PoolStats().Fetches
	if _, err := pinnedIDs(db, xpath.MustParse(`//person`), plan.RootPathsPlan); err != nil {
		t.Fatal(err)
	}
	if st := db.PoolStats(); st.Fetches == before {
		t.Fatalf("query did not touch the pool: %+v", st)
	}
}

// TestFamilyTablesComplete walks every index.Kind and every plan.Strategy:
// each kind must have a name and a builder whose product lands in a plan.Env
// field, each persisted kind a catalog record that round-trips through its
// own codec, and each strategy a name and a descriptor whose required kinds
// exist and suffice to plan and answer. A tenth structure or strategy added
// without its table row fails here, not at a missed branch somewhere.
func TestFamilyTablesComplete(t *testing.T) {
	db := New(Config{BufferPoolBytes: 8 << 20})
	for _, doc := range goldenDocs {
		if err := db.LoadXML(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	site := index.Site{Pool: db.pool, Store: db.Store(), Dict: db.dict, Ptab: db.ptab}
	persisted := map[index.Kind]bool{}
	for _, k := range index.PersistedKinds() {
		persisted[k] = true
	}
	env := plan.Env{Store: site.Store, Dict: site.Dict}
	for k := index.Kind(0); k < index.NumKinds; k++ {
		if name := k.String(); name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		built, err := index.Build(k, site)
		if err != nil {
			t.Fatalf("building %v: %v", k, err)
		}
		st, isStructure := built.(index.Structure)
		if isStructure != persisted[k] {
			t.Fatalf("%v: is a Structure = %v, has a record codec = %v", k, isStructure, persisted[k])
		}
		if isStructure {
			if st.Kind() != k {
				t.Fatalf("building %v produced a %v", k, st.Kind())
			}
			var rec, again index.CatWriter
			st.AppendRecord(&rec)
			r := index.NewCatReader(rec.Buf)
			re := index.Open(k, r, site)
			if r.Err() != nil || r.Len() != 0 {
				t.Fatalf("%v: reading back its own record: err %v, %d bytes left", k, r.Err(), r.Len())
			}
			re.AppendRecord(&again)
			if !bytes.Equal(rec.Buf, again.Buf) || re.Space() != st.Space() {
				t.Fatalf("%v: record does not round-trip", k)
			}
			built = re // the strategies below run on the reopened structure
		}
		env.Install(k, built)
	}
	if got := env.Structures(); len(got) != len(persisted) {
		t.Fatalf("%d of %d persisted kinds landed in a plan.Env field", len(got), len(persisted))
	}
	env.Stats = stats.Collect(site.Store, site.Dict)

	pat := xpath.MustParse(`/a/b/a/b[c = 'v1']`)
	want := naive.Match(site.Store, pat)
	for s := plan.Strategy(0); s < plan.NumStrategies; s++ {
		if name := s.String(); name == "" || name == "unknown" {
			t.Fatalf("strategy %d has no name", s)
		}
		if len(s.Requires()) == 0 {
			t.Fatalf("strategy %v requires no index", s)
		}
		for _, k := range s.Requires() {
			if k < 0 || k >= index.NumKinds {
				t.Fatalf("strategy %v requires kind %d, which does not exist", s, k)
			}
		}
		tree, err := plan.Build(&env, s, pat)
		if err != nil {
			t.Fatalf("strategy %v with every kind built: %v", s, err)
		}
		if got, _, err := plan.Run(&env, tree, false); err != nil || !equalIDs(got, want) {
			t.Fatalf("strategy %v: %v, %v; naive %v", s, got, err, want)
		}
		// Without what it requires the strategy is refused, not run.
		bare := env
		bare.Install(s.Requires()[0], nil)
		if _, err := plan.Build(&bare, s, pat); err == nil {
			t.Fatalf("strategy %v planned without its %v index", s, s.Requires()[0])
		}
	}

	if index.NumKinds.String() != "unknown" || plan.NumStrategies.String() != "unknown" {
		t.Fatalf("out-of-range kind or strategy has a name")
	}
	if _, err := index.Build(index.NumKinds, site); err == nil {
		t.Fatalf("building an out-of-range kind: want error")
	}
	if _, err := plan.Build(&env, plan.NumStrategies, pat); err == nil {
		t.Fatalf("planning an out-of-range strategy: want error")
	}
}

// TestFaultsNeedPath: fault injection has one mode, below the FileDisk's
// page checksums. Faults without a Path fail Open with ErrFaultsNeedPath,
// and New panics on them as it does on a Path.
func TestFaultsNeedPath(t *testing.T) {
	inj := storage.NewFaultInjector(1, storage.FaultSpec{Kind: storage.FaultTornWrite})
	if db, err := Open(Config{Faults: inj}); !errors.Is(err, ErrFaultsNeedPath) || db != nil {
		t.Fatalf("Open(Faults, no Path) = %v, %v; want ErrFaultsNeedPath", db, err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrFaultsNeedPath) {
			t.Fatalf("New(Faults, no Path) recovered %v, want an ErrFaultsNeedPath panic", err)
		}
	}()
	New(Config{Faults: inj})
}
