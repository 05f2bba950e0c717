package plan_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xpath"
)

func buildSJ(t testing.TB, docs ...string) *engine.DB {
	t.Helper()
	db := engine.New(engine.Config{BufferPoolBytes: 16 << 20})
	for _, d := range docs {
		if err := db.LoadXML(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(index.KindEdge, index.KindContainment, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	return db
}

func checkSJ(t *testing.T, db *engine.DB, q string) {
	t.Helper()
	pat := xpath.MustParse(q)
	want := naive.Match(db.Store(), pat)
	got, es, err := execute(db.Env(), plan.StructuralJoinPlan, pat)
	if err != nil {
		t.Errorf("SJ %s: %v", q, err)
		return
	}
	if !idsEqual(got, want) {
		t.Errorf("SJ %s = %v, want %v", q, got, want)
	}
	if es.IndexLookups == 0 {
		t.Errorf("SJ %s: no lookups counted", q)
	}
}

func TestStructuralJoinCorrectness(t *testing.T) {
	db := buildSJ(t, bookXML)
	for _, q := range []string{
		`/book`,
		`/book/title[. = 'XML']`,
		`//author[fn = 'jane'][ln = 'doe']`,
		`/book[title='XML']//author[fn='jane' and ln='doe']`,
		`/book[year='1999']//author[ln='doe']`,
		`/book/allauthors/author[fn='jane']/ln`,
		`//section/head[. = 'Origins']`,
		`//nosuchlabel`,
		`/title`,
	} {
		checkSJ(t, db, q)
	}
}

func TestStructuralJoinAuction(t *testing.T) {
	db := buildSJ(t, auctionXML)
	for _, q := range []string{
		`/site//item[quantity = 2][location = 'united states']/mailbox/mail/to`,
		`/site/open_auctions/open_auction[annotation/author/@person = 'p1']/time`,
		`//item[incategory/@category = 'c1']`,
		`/site[people/person/profile/@income = 100]/open_auctions/open_auction[@increase = 75.00]`,
	} {
		checkSJ(t, db, q)
	}
}

func TestStructuralJoinRecursiveElements(t *testing.T) {
	db := buildSJ(t, `<a><b>v</b><a><b>v</b><a><b>w</b></a></a></a>`)
	for _, q := range []string{
		`//a/b`, `//a//b`, `/a/a/b`, `//a[b='v']`, `//a//a[b='w']`,
		`/a[b='v']//a[b='w']`, `//a//a//a`,
	} {
		checkSJ(t, db, q)
	}
}

func TestStructuralJoinRequiresIndices(t *testing.T) {
	db := engine.New(engine.Config{BufferPoolBytes: 4 << 20})
	if err := db.LoadXML(strings.NewReader(bookXML)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execute(db.Env(), plan.StructuralJoinPlan, xpath.MustParse(`/book`)); err == nil {
		t.Fatalf("SJ without indices: want error")
	}
	if err := db.Build(index.KindContainment); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execute(db.Env(), plan.StructuralJoinPlan, xpath.MustParse(`/book`)); err == nil {
		t.Fatalf("SJ without Edge: want error")
	}
}
