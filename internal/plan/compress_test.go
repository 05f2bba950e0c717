package plan_test

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// TestSchemaPathIDKeysAnswerExactPaths holds SchemaPathId compression
// (Section 4.2) to what it promises: lossy for //, and only for //. On
// ROOTPATHS and DATAPATHS built with PathIDKeys every //-free workload
// query — each branch an exact rooted path, each bound probe an exact path
// below its head — answers as the naive matcher does, pinned to either
// index, with the index-nested-loop join forced, and again after an
// incremental insert; a query with // is refused with the index's own
// error.
func TestSchemaPathIDKeysAnswerExactPaths(t *testing.T) {
	db := engine.New(engine.Config{BufferPoolBytes: 16 << 20, PathsOptions: index.PathsOptions{PathIDKeys: true}})
	db.AddDocument(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20}))
	db.AddDocument(datagen.DBLP(datagen.DBLPConfig{Papers: 300}))
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		env := db.Env()
		inl := *env
		inl.INLFactor = 1
		boundProbes := int64(0)
		for _, q := range workload.All() {
			pat := xpath.MustParse(q.XPath)
			for _, m := range []struct {
				name  string
				env   *plan.Env
				strat plan.Strategy
			}{{"RP", env, plan.RootPathsPlan}, {"DP", env, plan.DataPathsPlan}, {"DP/inl1", &inl, plan.DataPathsPlan}} {
				ids, es, err := execute(m.env, m.strat, pat)
				if q.Recursive {
					if err == nil || !strings.Contains(err.Error(), "cannot answer suffix probes") {
						t.Errorf("%s: %s via %s: error %v, want the suffix-probe refusal", when, q.ID, m.name, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %s via %s: %v", when, q.ID, m.name, err)
				} else if want := naive.Match(db.Store(), pat); !idsEqual(ids, want) {
					t.Errorf("%s: %s via %s: %d ids, naive matcher has %d", when, q.ID, m.name, len(ids), len(want))
				} else {
					boundProbes += es.INLProbes
				}
			}
		}
		if boundProbes == 0 {
			t.Errorf("%s: no query ran a bound probe: the path-id BoundIndex lookup went untested", when)
		}
	}
	check("built")

	namerica := naive.Match(db.Store(), xpath.MustParse(`/site/regions/namerica`))
	if len(namerica) != 1 {
		t.Fatalf("/site/regions/namerica matched %v", namerica)
	}
	item := xmldb.Elem("item", xmldb.Text("quantity", datagen.QuantityRare), xmldb.Text("location", datagen.LocationCommon))
	before := len(naive.Match(db.Store(), xpath.MustParse(workload.XMark()[0].XPath)))
	if err := db.InsertSubtree(namerica[0], item); err != nil {
		t.Fatal(err)
	}
	if after := len(naive.Match(db.Store(), xpath.MustParse(workload.XMark()[0].XPath))); after != before+1 {
		t.Fatalf("insert did not add a Q1x match: %d -> %d", before, after)
	}
	check("after insert")
}
