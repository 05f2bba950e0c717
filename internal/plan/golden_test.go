package plan_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// branchStrategies are the eight strategies that run on the branch
// evaluators (everything but the structural join).
var branchStrategies = allStrategies[:8]

// TestStrategyCountersGolden pins, per strategy and query, the answer and
// the work counters the paper's tables are built from — IndexLookups,
// RowsScanned, INLProbes, RelationsUsed, Join.TuplesIn/Out — against a
// checked-in file. The counters are the cost model ("a lookup per step, even
// for labels that never occur"), so an evaluator rewrite must leave the
// file byte-identical. Each query runs under the default INL threshold and
// again with the threshold at 1, so that every strategy with a bound access
// path goes through it. Regenerate with -update.
func TestStrategyCountersGolden(t *testing.T) {
	type set struct {
		name    string
		db      *engine.DB
		queries [][2]string // id, text
	}
	paper := engine.New(engine.Config{BufferPoolBytes: 16 << 20})
	paper.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20}))
	paper.AddDocument(datagen.DBLP(datagen.DBLPConfig{Papers: 300}))
	if err := paper.BuildAll(); err != nil {
		t.Fatal(err)
	}
	sets := []set{{name: "paper", db: paper}, {name: "mail", db: buildDB(t, nestedMailXML())}}
	for _, q := range workload.All() {
		sets[0].queries = append(sets[0].queries, [2]string{q.ID, q.XPath})
	}
	for i, q := range []string{
		`//site//item[quantity = '2']`,
		`//item[quantity = '2'][mailbox//to]`,
		`//item[quantity = '2']/mailbox/mail[date]/to`,
		`/site//zone//mail[date = 'd1']/to`,
	} {
		sets[1].queries = append(sets[1].queries, [2]string{fmt.Sprintf("M%d", i+1), q})
	}

	var got bytes.Buffer
	for _, s := range sets {
		env := s.db.Env()
		inl := *env
		inl.INLFactor = 1
		modes := []struct {
			name string
			env  *plan.Env
		}{{"serial", env}, {"inl1", &inl}}
		for _, q := range s.queries {
			pat := xpath.MustParse(q[1])
			want := naive.Match(s.db.Store(), pat)
			for _, strat := range branchStrategies {
				for _, m := range modes {
					tree, err := plan.Build(m.env, strat, pat)
					if err != nil {
						t.Fatalf("%s %v: %v", q[0], strat, err)
					}
					ids, es, err := plan.Run(m.env, tree, false)
					if err != nil {
						t.Fatalf("%s %v %s: %v", q[0], strat, m.name, err)
					}
					if !idsEqual(ids, want) {
						t.Errorf("%s %v %s: %d ids, naive matcher has %d", q[0], strat, m.name, len(ids), len(want))
					}
					h := fnv.New64a()
					for _, id := range ids {
						fmt.Fprintf(h, "%d,", id)
					}
					fmt.Fprintf(&got, "%s/%s %-9s %-8s ids=%d#%016x lookups=%d rows=%d inl=%d rels=%d in=%d out=%d\n",
						s.name, q[0], strat, m.name, len(ids), h.Sum64(),
						es.IndexLookups, es.RowsScanned, es.INLProbes, es.RelationsUsed, es.Join.TuplesIn, es.Join.TuplesOut)
				}
			}
		}
	}

	path := filepath.Join("testdata", "strategy_counters.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantFile, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), wantFile) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(wantFile), "\n")
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 20; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden has %d", len(gl), len(wl))
	}
}
