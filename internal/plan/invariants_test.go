package plan_test

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/xpath"
)

// TestINLDecisionDoesNotChangeResults: the INL-vs-merge choice (and branch
// ordering) are pure performance decisions; every setting must return the
// oracle's answer.
func TestINLDecisionDoesNotChangeResults(t *testing.T) {
	db := buildDB(t, auctionXML)
	queries := []string{
		`/site/open_auctions/open_auction[annotation/author/@person = 'p1']/time`,
		`/site//item[quantity = 2][location = 'united states']/mailbox/mail/to`,
		`/site[people/person/profile/@income = 100]/open_auctions/open_auction[@increase = 3.00]`,
		`//item[incategory/@category = 'c1']/mailbox/mail/date`,
	}
	strategies := []plan.Strategy{
		plan.DataPathsPlan, plan.ASRPlan, plan.JoinIndexPlan, plan.EdgePlan,
	}
	for _, q := range queries {
		pat := xpath.MustParse(q)
		want := naive.Match(db.Store(), pat)
		for _, s := range strategies {
			for _, factor := range []int{-1, 1, 4, 1 << 20} {
				for _, noReorder := range []bool{false, true} {
					env := *db.Env()
					env.INLFactor = factor
					env.NoReorder = noReorder
					got, es, err := execute(&env, s, pat)
					if err != nil {
						t.Fatalf("%v factor=%d reorder=%v: %s: %v", s, factor, !noReorder, q, err)
					}
					if !idsEqual(got, want) {
						t.Fatalf("%v factor=%d reorder=%v: %s = %v, want %v",
							s, factor, !noReorder, q, got, want)
					}
					if factor < 0 && es.UsedINL {
						t.Fatalf("%v: INL used despite being disabled", s)
					}
				}
			}
		}
	}
}

// TestForcedINLEverywhere drives the INL threshold to 1 so that nearly every
// join runs as index-nested-loop, across random document/query pairs.
func TestForcedINLEverywhere(t *testing.T) {
	db := buildDB(t, bookXML)
	queries := []string{
		`/book[title='XML']//author[fn='jane' and ln='doe']`,
		`/book[year='2000']//author[ln='doe']`,
		`/book[chapter/section/head='Origins'][title='XML']`,
		`/book/allauthors/author[fn='jane']/ln`,
	}
	for _, q := range queries {
		pat := xpath.MustParse(q)
		want := naive.Match(db.Store(), pat)
		env := *db.Env()
		env.INLFactor = 1
		for _, s := range []plan.Strategy{plan.DataPathsPlan, plan.ASRPlan, plan.JoinIndexPlan} {
			got, _, err := execute(&env, s, pat)
			if err != nil {
				t.Fatalf("%v: %s: %v", s, q, err)
			}
			if !idsEqual(got, want) {
				t.Fatalf("%v forced INL: %s = %v, want %v", s, q, got, want)
			}
		}
	}
}
