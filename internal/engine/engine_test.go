package engine

import (
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
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
	res, err := db.Read(pat, ReadOpts{Strategy: strat, Workers: 1})
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
	if got := len(db.Spaces()); got != 8 {
		t.Fatalf("Spaces = %d entries", got)
	}
	before := db.PoolStats().Fetches
	if _, err := pinnedIDs(db, xpath.MustParse(`//person`), plan.RootPathsPlan); err != nil {
		t.Fatal(err)
	}
	if st := db.PoolStats(); st.Fetches == before {
		t.Fatalf("query did not touch the pool: %+v", st)
	}
}
