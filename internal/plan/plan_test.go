package plan_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

var allStrategies = []plan.Strategy{
	plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan,
	plan.DataGuideEdgePlan, plan.FabricEdgePlan, plan.ASRPlan,
	plan.JoinIndexPlan, plan.XRelPlan, plan.StructuralJoinPlan,
}

const bookXML = `
<book>
 <title>XML</title>
 <allauthors>
  <author><fn>jane</fn><ln>poe</ln></author>
  <author><fn>john</fn><ln>doe</ln></author>
  <author><fn>jane</fn><ln>doe</ln></author>
 </allauthors>
 <year>2000</year>
 <chapter>
  <title>XML</title>
  <section><head>Origins</head></section>
 </chapter>
</book>`

const auctionXML = `
<site>
 <regions>
  <namerica>
   <item id="i1"><location>united states</location><quantity>2</quantity>
    <incategory category="c1"/>
    <mailbox><mail><date>10/10/2000</date><to>x@y</to></mail></mailbox>
   </item>
   <item id="i2"><location>canada</location><quantity>5</quantity>
    <incategory category="c2"/>
   </item>
  </namerica>
  <europe>
   <item id="i3"><location>france</location><quantity>2</quantity>
    <incategory category="c1"/>
    <mailbox><mail><date>11/11/2000</date><to>z@w</to></mail></mailbox>
   </item>
  </europe>
 </regions>
 <people>
  <person id="p1"><name>ann</name><profile income="100"/></person>
  <person id="p2"><name>bob</name><profile income="200"/></person>
 </people>
 <open_auctions>
  <open_auction id="a1" increase="3.00">
   <annotation><author person="p1"/></annotation>
   <bidder increase="3.00"/><bidder increase="9.00"/>
   <time>t1</time><time>t2</time>
  </open_auction>
  <open_auction id="a2" increase="75.00">
   <annotation><author person="p2"/></annotation>
   <bidder increase="3.00"/>
   <time>t3</time>
  </open_auction>
 </open_auctions>
</site>`

func buildDB(t testing.TB, docs ...string) *engine.DB {
	t.Helper()
	db := engine.New(engine.Config{BufferPoolBytes: 16 << 20})
	for _, d := range docs {
		if err := db.LoadXML(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindContainment); err != nil {
		t.Fatal(err)
	}
	return db
}

// execute builds strat's plan tree for pat and runs it serially.
func execute(env *plan.Env, strat plan.Strategy, pat *xpath.Pattern) ([]int64, *plan.ExecStats, error) {
	t, err := plan.Build(env, strat, pat)
	if err != nil {
		return nil, nil, err
	}
	return plan.ExecuteTree(env, t)
}

// idsEqual compares result sets, treating nil and empty as equal.
func idsEqual(a, b []int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// checkAll runs q under every strategy and compares with the naive oracle.
func checkAll(t *testing.T, db *engine.DB, q string) {
	t.Helper()
	pat := xpath.MustParse(q)
	want := naive.Match(db.Store(), pat)
	for _, strat := range allStrategies {
		got, _, err := execute(db.Env(), strat, pat)
		if err != nil {
			t.Errorf("%v: %s: %v", strat, q, err)
			continue
		}
		if !idsEqual(got, want) {
			t.Errorf("%v: %s = %v, want %v", strat, q, got, want)
		}
	}
}

func TestAllStrategiesBookQueries(t *testing.T) {
	db := buildDB(t, bookXML)
	queries := []string{
		`/book`,
		`/book/title`,
		`/book/title[. = 'XML']`,
		`/book/title[. = 'nope']`,
		`//title`,
		`//title[. = 'XML']`,
		`/book//title`,
		`//author/fn[. = 'jane']`,
		`//author[fn = 'jane']`,
		`//author[fn = 'jane'][ln = 'doe']`,
		`/book[title='XML']//author[fn='jane' and ln='doe']`,
		`/book[year='2000']//author[ln='doe']`,
		`/book[year='1999']//author[ln='doe']`,
		`/book[chapter/section/head='Origins'][title='XML']`,
		`/book/allauthors/author[fn='jane']/ln`,
		`/book/chapter/section/head`,
		`//section/head[. = 'Origins']`,
		`//nosuchlabel`,
		`/title`,
	}
	for _, q := range queries {
		checkAll(t, db, q)
	}
}

func TestAllStrategiesAuctionQueries(t *testing.T) {
	db := buildDB(t, auctionXML)
	queries := []string{
		// Paper workload shapes (Figures 7 and 8) at miniature scale.
		`/site/regions/namerica/item/quantity[. = 5]`,
		`/site/regions/namerica/item/quantity[. = 2]`,
		`/site[people/person/profile/@income = 100]/open_auctions/open_auction[@increase = 75.00]`,
		`/site[people/person/profile/@income = 100][people/person/name = 'ann']/open_auctions/open_auction[@increase = 3.00]`,
		`/site[people/person/profile/@income = 200][regions/namerica/item/location = 'united states']/open_auctions/open_auction[@increase = 3.00]`,
		`/site/open_auctions/open_auction[annotation/author/@person = 'p1']/time`,
		`/site/open_auctions/open_auction[annotation/author/@person = 'p1'][bidder/@increase = 3.00]/time`,
		`/site//item[incategory/@category = 'c1']/mailbox/mail/date`,
		`/site//item[incategory/@category = 'c1']/mailbox/mail/date[. = '10/10/2000']`,
		`/site//item[quantity = 2][location = 'united states']/mailbox/mail/to`,
		`/site//item[quantity = 2][location = 'united states']`,
		`//item[quantity = 2]`,
		`//mail/to`,
		`//person[@income = '300']`,
		`/site/people/person/name`,
	}
	for _, q := range queries {
		checkAll(t, db, q)
	}
}

func TestRecursiveVariantsAgree(t *testing.T) {
	// Section 5.2.4: queries with a leading // must return the same result
	// when the data has a single root (here: site).
	db := buildDB(t, auctionXML)
	pairs := [][2]string{
		{`/site/people/person/name`, `//person/name`},
		{`/site/regions/namerica/item/quantity[. = 2]`, `//namerica/item/quantity[. = 2]`},
	}
	for _, p := range pairs {
		checkAll(t, db, p[0])
		checkAll(t, db, p[1])
	}
}

func TestMultipleDocumentsAllStrategies(t *testing.T) {
	db := buildDB(t, `<b><t>X</t></b>`, `<b><t>Y</t></b>`, `<c><t>X</t></c>`)
	for _, q := range []string{`/b/t[. = 'X']`, `//t[. = 'X']`, `/c//t`, `/b`} {
		checkAll(t, db, q)
	}
}

func TestRecursiveElementNesting(t *testing.T) {
	db := buildDB(t, `<a><b>v</b><a><b>v</b><a><b>w</b></a></a></a>`)
	for _, q := range []string{
		`//a/b`, `//a//b`, `/a/a/b`, `//a[b='v']`, `//a//a[b='w']`,
		`/a[b='v']//a[b='w']`, `//a//a//a`,
	} {
		checkAll(t, db, q)
	}
}

func TestMissingIndexErrors(t *testing.T) {
	db := engine.New(engine.Config{BufferPoolBytes: 1 << 20})
	if err := db.LoadXML(strings.NewReader(bookXML)); err != nil {
		t.Fatal(err)
	}
	// No indices built: every strategy must fail loudly.
	for _, strat := range allStrategies {
		if _, _, err := execute(db.Env(), strat, xpath.MustParse(`/book`)); err == nil {
			t.Errorf("%v with no indices: want error", strat)
		}
	}
}

func TestExecStatsShape(t *testing.T) {
	db := buildDB(t, auctionXML)
	// An interior-// query through ASR must touch multiple relations (one
	// per matching concrete rooted path: namerica and europe items) — the
	// paper's Section 5.2.6 effect.
	_, es, err := execute(db.Env(), plan.ASRPlan, xpath.MustParse(`/site//item[quantity = 2]`))
	if err != nil {
		t.Fatal(err)
	}
	if es.RelationsUsed < 2 {
		t.Errorf("ASR // query touched %d relations, want >= 2", es.RelationsUsed)
	}
	// The same query through DATAPATHS is a single lookup.
	_, es, err = execute(db.Env(), plan.DataPathsPlan, xpath.MustParse(`//item[quantity = 2]`))
	if err != nil {
		t.Fatal(err)
	}
	if es.IndexLookups != 1 {
		t.Errorf("DP // query used %d lookups, want 1", es.IndexLookups)
	}
	// Edge pays per-step joins even on a single path.
	_, es, err = execute(db.Env(), plan.EdgePlan, xpath.MustParse(`/site/regions/namerica/item/quantity[. = 2]`))
	if err != nil {
		t.Fatal(err)
	}
	if es.IndexLookups < 4 {
		t.Errorf("Edge path query used %d lookups, want per-step joins", es.IndexLookups)
	}
}

// TestRandomizedCrossValidation generates random documents and random twig
// queries and cross-checks every strategy against the oracle.
func TestRandomizedCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(20250612))
	labels := []string{"a", "b", "c", "d"}
	values := []string{"u", "v", "w"}

	genDoc := func() string {
		var b strings.Builder
		var rec func(depth int)
		rec = func(depth int) {
			label := labels[rng.Intn(len(labels))]
			if depth >= 4 || rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "<%s>%s</%s>", label, values[rng.Intn(len(values))], label)
				return
			}
			fmt.Fprintf(&b, "<%s>", label)
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				rec(depth + 1)
			}
			fmt.Fprintf(&b, "</%s>", label)
		}
		rec(0)
		return b.String()
	}

	genQuery := func() string {
		var b strings.Builder
		depth := 1 + rng.Intn(3)
		for i := 0; i < depth; i++ {
			if rng.Intn(3) == 0 {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
			b.WriteString(labels[rng.Intn(len(labels))])
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&b, "[%s='%s']", labels[rng.Intn(len(labels))], values[rng.Intn(len(values))])
			}
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "[. = '%s']", values[rng.Intn(len(values))])
		}
		return b.String()
	}

	for round := 0; round < 6; round++ {
		docs := []string{genDoc(), genDoc()}
		db := buildDB(t, docs...)
		for qi := 0; qi < 25; qi++ {
			q := genQuery()
			pat, err := xpath.Parse(q)
			if err != nil {
				t.Fatalf("generated query %q does not parse: %v", q, err)
			}
			want := naive.Match(db.Store(), pat)
			for _, strat := range allStrategies {
				got, _, err := execute(db.Env(), strat, pat)
				if err != nil {
					t.Fatalf("round %d %v: %s: %v\ndocs: %v", round, strat, q, err, docs)
				}
				if !idsEqual(got, want) {
					t.Fatalf("round %d %v: %s = %v, want %v\ndocs: %v", round, strat, q, got, want, docs)
				}
			}
		}
	}
}

func TestDeepValueQuery(t *testing.T) {
	// Interior node with a value condition and children.
	doc := `<r><x>k<y>v</y></x><x>m<y>v</y></x></r>`
	d, err := xmldb.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	db := buildDB(t, doc)
	checkAll(t, db, `/r/x[. = 'k']/y`)
	checkAll(t, db, `/r/x[. = 'k'][y = 'v']`)
}
