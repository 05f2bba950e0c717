package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// TestReplanAfterSkewChangingUpdate is the regression test for stale
// planning after updates: a subtree insert invalidates the statistics, and
// the next Query / Explain(Auto) must re-derive every candidate's cost
// from statistics rebuilt over the post-update store — not price plans
// against the pre-update counts or a nil Stats. The workload is built so
// the skew change flips the planner's choice: while the //item/name branch
// is small, ROOTPATHS wins (cheaper descents, both branches materialised);
// after inserting thousands of names under one item, materialising that
// branch dominates and DATAPATHS wins by probing it bound (index-nested-
// loop) from the few 'hot' tags instead.
func TestReplanAfterSkewChangingUpdate(t *testing.T) {
	db := New(Config{BufferPoolBytes: 16 << 20})
	// Every item is 'hot': the name branch (8 rows) is not more than
	// inlFactor times the accumulated tag matches (8 rows), so neither
	// branch qualifies for an index-nested-loop probe and ROOTPATHS wins
	// on its cheaper descents. The bulk insert below explodes the name
	// branch past the INL threshold, flipping the choice to DATAPATHS.
	var b strings.Builder
	b.WriteString(`<root>`)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, `<item><tag>hot</tag><name>n%d</name></item>`, i)
	}
	b.WriteString(`</root>`)
	if err := db.LoadXML(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}

	pat := xpath.MustParse(`/root/item[tag = 'hot']//name`)
	_, _, before, err := db.QueryPatternBest(pat, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Attach a subtree that explodes the //item/name cardinality while
	// leaving the 'hot' tag as selective as before.
	items, err := pinnedIDs(db, xpath.MustParse(`/root/item`), plan.RootPathsPlan)
	if err != nil || len(items) == 0 {
		t.Fatalf("item lookup: %v (%d items)", err, len(items))
	}
	var skew strings.Builder
	skew.WriteString(`<bulk>`)
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&skew, `<name>bulk%d</name>`, i)
	}
	skew.WriteString(`</bulk>`)
	doc, err := xmldb.ParseString(skew.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertSubtree(items[len(items)-1], doc.Root); err != nil {
		t.Fatal(err)
	}

	// Query must replan against rebuilt statistics and change its choice.
	ids, _, after, err := db.QueryPatternBest(pat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatalf("strategy did not change after skew-changing insert (still %v)", before)
	}
	// The post-update snapshot's lazily rebuilt statistics must agree with
	// statistics collected from scratch over the same store: the choice
	// equals a fresh planner run.
	s := db.CurrentSnapshot()
	tree, _, err := plan.Choose(s.Env(), pat)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Strategy != after {
		t.Fatalf("executed %v but a fresh planning pass chooses %v", after, tree.Strategy)
	}
	// And the answer itself is correct (oracle check).
	want := db.MatchNaive(pat)
	if len(ids) != len(want) {
		t.Fatalf("post-insert result has %d ids, oracle %d", len(ids), len(want))
	}

	// Explain(Auto) must render the same re-derived deliberation.
	out, chosen, err := db.ExplainBest(pat)
	if err != nil {
		t.Fatal(err)
	}
	if chosen != after {
		t.Fatalf("ExplainBest chose %v, Query chose %v", chosen, after)
	}
	if !strings.Contains(out, after.String()) {
		t.Fatalf("EXPLAIN output does not mention the chosen strategy %v:\n%s", after, out)
	}

	// Deleting the skew subtree must flip the choice back — the delete
	// also invalidates statistics and the per-snapshot plan cache.
	bulkIDs, err := pinnedIDs(db, xpath.MustParse(`/root/item/bulk`), plan.RootPathsPlan)
	if err != nil || len(bulkIDs) != 1 {
		t.Fatalf("bulk lookup: %v (%d)", err, len(bulkIDs))
	}
	if err := db.DeleteSubtree(bulkIDs[0]); err != nil {
		t.Fatal(err)
	}
	_, _, reverted, err := db.QueryPatternBest(pat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reverted != before {
		t.Fatalf("strategy after delete = %v, want the original %v", reverted, before)
	}
}

// TestReplanUsesSnapshotConsistentStats: the statistics a query plans with
// must describe exactly the snapshot it executes against, even while
// writers churn — each snapshot rebuilds its own.
func TestReplanUsesSnapshotConsistentStats(t *testing.T) {
	db := New(Config{BufferPoolBytes: 8 << 20})
	if err := db.LoadXML(strings.NewReader(`<r><a><b>v</b></a></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	pat := xpath.MustParse(`//a/b`)
	if _, _, _, err := db.QueryPatternBest(pat, 1); err != nil {
		t.Fatal(err)
	}
	s1 := db.CurrentSnapshot()
	if s1.Env().Stats == nil {
		t.Fatal("snapshot stats not built by planning")
	}
	aIDs, err := pinnedIDs(db, xpath.MustParse(`//a`), plan.RootPathsPlan)
	if err != nil || len(aIDs) != 1 {
		t.Fatalf("a lookup: %v", err)
	}
	doc, _ := xmldb.ParseString(`<b>w</b>`)
	if err := db.InsertSubtree(aIDs[0], doc.Root); err != nil {
		t.Fatal(err)
	}
	s2 := db.CurrentSnapshot()
	if s2 == s1 {
		t.Fatal("insert did not publish a new snapshot")
	}
	// The predecessor's stats were built (a query planned with them), so
	// the writer re-derived fresh ones for the successor — never the stale
	// object, and never a nil a reader would stall rebuilding.
	if st := s2.Env().Stats; st == nil || st == s1.Env().Stats {
		t.Fatal("successor snapshot did not get freshly derived statistics")
	}
	if _, _, _, err := db.QueryPatternBest(pat, 1); err != nil {
		t.Fatal(err)
	}
	st := s2.Env().Stats
	if st == nil || st == s1.Env().Stats {
		t.Fatal("query did not plan with rebuilt statistics")
	}
	// Old snapshot's stats still describe the old store: //a/b count 1
	// there, 2 in the new one.
	if got, err := pinnedIDs(db, pat, plan.RootPathsPlan); err != nil || len(got) != 2 {
		t.Fatalf("post-insert //a/b = %d ids (%v), want 2", len(got), err)
	}
}
