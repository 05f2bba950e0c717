package twigdb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

const memoTestXML = `<book><title>XML</title><allauthors>
 <author><fn>jane</fn><ln>poe</ln></author>
 <author><fn>john</fn><ln>doe</ln></author>
 <author><fn>jane</fn><ln>doe</ln></author>
</allauthors></book>`

func openMemoTestDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpen(nil)
	if err := db.LoadXML(strings.NewReader(memoTestXML)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSharedQueryTextConcurrent has two goroutines issue the same query
// text at once, so both execute from the one *xpath.Pattern the parse memo
// hands out — through the plan cache (Auto), through a plan built from the
// pattern per call (pinned strategies), through the naive matcher (Oracle)
// and through a traced run. Nothing may write to a pattern after Parse; the
// race detector is the assertion (make race, whose GOMAXPROCS=4 makes the
// goroutines genuinely parallel), the ids only show the runs were real.
func TestSharedQueryTextConcurrent(t *testing.T) {
	db := openMemoTestDB(t)
	const q = `//author[fn = 'jane'][ln = 'doe']`
	want, err := db.QueryWith(Oracle, q)
	if err != nil || want.Count() != 1 {
		t.Fatalf("oracle: %v, %v", want, err)
	}
	strategies := []Strategy{Auto, StrategyRootPaths, StrategyDataPaths, StrategyEdge, StrategyASR, Oracle}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				strat := strategies[(g+i)%len(strategies)]
				var res *Result
				var err error
				if i%10 == 9 && strat != Oracle {
					res, err = db.ExplainAnalyze(strat, q)
				} else {
					res, err = db.QueryWith(strat, q)
				}
				if err != nil {
					t.Errorf("%v: %v", strat, err)
					return
				}
				if !slices.Equal(res.IDs, want.IDs) {
					t.Errorf("%v: ids %v, want %v", strat, res.IDs, want.IDs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(db.parsed.m); n != 1 {
		t.Errorf("parse memo holds %d texts after one distinct query, want 1", n)
	}
}

// TestParseMemoBoundedAndErrorsNotKept: a repeated text is parsed once, a
// text that does not parse is not remembered, and a stream of distinct
// texts — here from two goroutines, so that emptying the memo races with
// lookups — never grows it past its fixed size.
func TestParseMemoBoundedAndErrorsNotKept(t *testing.T) {
	db := openMemoTestDB(t)
	first, err := db.parsed.parse(`//author/fn`)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.parsed.parse(`//author/fn`); again != first {
		t.Error("a repeated text was parsed again")
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Query(`//author[`); err == nil {
			t.Fatal("malformed query did not fail")
		}
	}
	if _, kept := db.parsed.m[`//author[`]; kept {
		t.Error("a parse error was remembered")
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*parseMemoSize; i++ {
				q := fmt.Sprintf(`//author[fn = 'jane'][ln = 'n%d']`, i+g)
				if res, err := db.Query(q); err != nil || res.Count() != 0 {
					t.Errorf("%s: %v, %v", q, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(db.parsed.m); n == 0 || n > parseMemoSize {
		t.Errorf("parse memo holds %d texts, want 1..%d", n, parseMemoSize)
	}
}
