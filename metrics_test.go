package twigdb_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	twigdb "repro"
	"repro/internal/datagen"
	"repro/internal/xmldb"
)

// TestExplainAnalyze checks the EXPLAIN ANALYZE surface: a traced run
// returns the same answer as an untraced one, its plan carries and renders
// per-operator wall time, and the self times sum to the root's. A query
// without tracing enabled must carry no timings.
func TestExplainAnalyze(t *testing.T) {
	db := twigdb.MustOpen(nil)
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	const q = `/shelf/book/title`
	plain, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *twigdb.PlanNode, fn func(*twigdb.PlanNode))
	walk = func(n *twigdb.PlanNode, fn func(*twigdb.PlanNode)) {
		fn(n)
		for _, c := range n.Children {
			walk(c, fn)
		}
	}
	walk(plain.Plan, func(n *twigdb.PlanNode) {
		if n.Elapsed != 0 || n.Self != 0 || n.Reads != 0 || n.ReadBytes != 0 {
			t.Errorf("untraced %s carries timings: %+v", n.Op, n)
		}
	})
	if out := plain.Plan.Render(); strings.Contains(out, "time=") {
		t.Errorf("untraced plan renders timings:\n%s", out)
	}
	res, err := db.ExplainAnalyze(twigdb.Auto, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != len(plain.IDs) {
		t.Fatalf("traced run returned %d ids, untraced %d", len(res.IDs), len(plain.IDs))
	}
	if res.Plan.Elapsed <= 0 {
		t.Fatalf("root elapsed = %v, want > 0", res.Plan.Elapsed)
	}
	var self time.Duration
	walk(res.Plan, func(n *twigdb.PlanNode) { self += n.Self })
	if self != res.Plan.Elapsed {
		t.Fatalf("self times sum to %v, root elapsed %v", self, res.Plan.Elapsed)
	}
	out := res.Plan.Render()
	if !strings.Contains(out, "time=") || !strings.Contains(out, "self=") {
		t.Fatalf("traced plan render missing timings:\n%s", out)
	}
	if _, err := db.ExplainAnalyze(twigdb.Oracle, q); err == nil {
		t.Fatalf("ExplainAnalyze(Oracle) succeeded, want error")
	}
}

// TestMetricsAndSlowQueries drives the always-on tracing path: with a
// 1ns threshold every query is slow, so the latency histogram fills, the
// slow-query ring captures traced plans, and Result.Plan carries timings
// on ordinary queries.
func TestMetricsAndSlowQueries(t *testing.T) {
	db := twigdb.MustOpen(&twigdb.Options{SlowQueryThreshold: time.Nanosecond})
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	queries := []string{`/shelf/book/title`, `/shelf/book[title='Tuning']`, `//book`}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Plan.Elapsed <= 0 {
			t.Fatalf("%s: threshold-enabled tracing left Result.Plan untimed", q)
		}
	}
	m := db.Metrics()
	if m.QueryLatency.Count != int64(len(queries)) {
		t.Fatalf("QueryLatency.Count = %d, want %d", m.QueryLatency.Count, len(queries))
	}
	if m.QueryLatency.P50 <= 0 || m.QueryLatency.P99 < m.QueryLatency.P50 {
		t.Fatalf("implausible quantiles: %+v", m.QueryLatency)
	}
	if m.QueryLatency.Max < m.QueryLatency.P999 {
		t.Fatalf("max %v below p999 %v", m.QueryLatency.Max, m.QueryLatency.P999)
	}
	if m.SlowQueries != int64(len(queries)) {
		t.Fatalf("SlowQueries = %d, want %d", m.SlowQueries, len(queries))
	}
	slow := db.SlowQueries()
	if len(slow) != len(queries) {
		t.Fatalf("len(SlowQueries()) = %d, want %d", len(slow), len(queries))
	}
	for i, s := range slow {
		if s.Query != queries[i] {
			t.Fatalf("slow[%d].Query = %q, want %q (oldest first)", i, s.Query, queries[i])
		}
		if s.Strategy == "" || s.Elapsed <= 0 || s.When.IsZero() {
			t.Fatalf("slow[%d] incomplete: %+v", i, s)
		}
		if !strings.Contains(s.Plan, "time=") {
			t.Fatalf("slow[%d].Plan not traced:\n%s", i, s.Plan)
		}
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkPromText validates the scrape body line by line and returns the
// value lines indexed by series (name plus labels).
func checkPromText(t *testing.T, body string) map[string]string {
	t.Helper()
	series := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus text line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		series[line[:sp]] = line[sp+1:]
	}
	return series
}

// TestServeMetricsEndpoint is the end-to-end observability test: a
// file-backed database with a one-shot fsync fault serves /metrics; the
// scrape is valid Prometheus text carrying the query-latency and
// group-commit histograms, and poisoning the device flips the exported
// twigdb_readonly gauge from 0 to 1.
func TestServeMetricsEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.twigdb")
	db, err := twigdb.Open(&twigdb.Options{
		Path: path,
		FaultInjection: &twigdb.FaultInjection{
			Seed:  7,
			Armed: false,
			Specs: []twigdb.FaultSpec{{Kind: twigdb.FaultFsyncError}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	shelf, err := db.Query(`/shelf`)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := db.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	series := checkPromText(t, scrape(t, srv.URL()))
	if series["twigdb_readonly"] != "0" {
		t.Fatalf("twigdb_readonly = %q on a healthy database", series["twigdb_readonly"])
	}
	if series["twigdb_queries_total"] != "1" {
		t.Fatalf("twigdb_queries_total = %q, want 1", series["twigdb_queries_total"])
	}
	if series["twigdb_query_latency_seconds_count"] != "1" {
		t.Fatalf("query latency histogram count = %q, want 1",
			series["twigdb_query_latency_seconds_count"])
	}
	if _, ok := series[`twigdb_query_latency_seconds_bucket{le="+Inf"}`]; !ok {
		t.Fatalf("query latency histogram missing +Inf bucket")
	}
	if _, ok := series["twigdb_group_commit_batch_size_count"]; !ok {
		t.Fatalf("group-commit histogram missing")
	}
	if _, ok := series["twigdb_wal_fsync_latency_seconds_count"]; !ok {
		t.Fatalf("WAL fsync histogram missing")
	}

	// pprof rides the same listener.
	if resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof index: %s", resp.Status)
		}
	}

	// Poison the device: the next scrape must flip the gauges and export
	// the fault and the degraded-mode cause.
	db.SetFaultsArmed(true)
	if _, err := db.Insert(shelf.IDs[0], `<book><title>Doomed</title></book>`); err == nil {
		t.Fatalf("insert with failed fsync succeeded")
	}
	series = checkPromText(t, scrape(t, srv.URL()))
	if series["twigdb_readonly"] != "1" {
		t.Fatalf("twigdb_readonly = %q after poisoning, want 1", series["twigdb_readonly"])
	}
	if series["twigdb_device_poisoned"] != "1" {
		t.Fatalf("twigdb_device_poisoned = %q after poisoning, want 1", series["twigdb_device_poisoned"])
	}
	if series["twigdb_injected_faults_total"] == "0" {
		t.Fatalf("twigdb_injected_faults_total still 0 after an injected fault")
	}
	foundKind, foundCause := false, false
	for k := range series {
		if strings.HasPrefix(k, "twigdb_fault_fired_total{kind=") {
			foundKind = true
		}
		if strings.HasPrefix(k, "twigdb_readonly_cause{cause=") {
			foundCause = true
		}
	}
	if !foundKind {
		t.Fatalf("no twigdb_fault_fired_total{kind=...} series after an injected fault")
	}
	if !foundCause {
		t.Fatalf("no twigdb_readonly_cause{cause=...} series in degraded mode")
	}
}

// TestCommitsSinceSyncGauge: /metrics reports the commits logged past the
// last sync point — the replay a crash would leave to the next Open — and
// StorageStats the same count; a Checkpoint's sync point zeroes both.
func TestCommitsSinceSyncGauge(t *testing.T) {
	db, err := twigdb.Open(&twigdb.Options{Path: filepath.Join(t.TempDir(), "lag.twigdb")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	shelf, err := db.Query(`/shelf`)
	if err != nil {
		t.Fatal(err)
	}
	gauge := func() string {
		var b strings.Builder
		if err := db.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return checkPromText(t, b.String())["twigdb_commits_since_sync"]
	}
	if g := gauge(); g != "0" {
		t.Fatalf("twigdb_commits_since_sync = %q after Build, want 0", g)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert(shelf.IDs[0], `<book><title>T</title></book>`); err != nil {
			t.Fatal(err)
		}
	}
	if g, st := gauge(), db.StorageStats(); g != "3" || st.CommitsSinceSync != 3 {
		t.Fatalf("after 3 commits: gauge %q, StorageStats.CommitsSinceSync %d; want 3", g, st.CommitsSinceSync)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != "0" {
		t.Fatalf("twigdb_commits_since_sync = %q after Checkpoint, want 0", g)
	}
}

// TestPrepareAttribution: /metrics attributes every statement's prepare —
// store, statistics, node table, each maintained index kind — and counts
// the pages each tree copied on write. A database that has only been read
// exports the phase histograms empty and no per-kind member; three inserts
// then give every series three samples, and the first insert into the
// built indices copies shared pages in every tree.
func TestPrepareAttribution(t *testing.T) {
	db, err := twigdb.Open(&twigdb.Options{Path: filepath.Join(t.TempDir(), "prep.twigdb")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	shelf, err := db.Query(`/shelf`)
	if err != nil {
		t.Fatal(err)
	}
	scrapeSeries := func() map[string]string {
		var b strings.Builder
		if err := db.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return checkPromText(t, b.String())
	}
	series := scrapeSeries()
	if c := series["twigdb_prepare_store_seconds_count"]; c != "0" {
		t.Fatalf("store prepare count %q before any write, want 0", c)
	}
	for k := range series {
		if strings.HasPrefix(k, "twigdb_index_maintain_seconds") {
			t.Fatalf("%s exported before any write", k)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert(shelf.IDs[0], `<book><title>T</title></book>`); err != nil {
			t.Fatal(err)
		}
	}
	series = scrapeSeries()
	for _, k := range []string{
		"twigdb_prepare_store_seconds_count",
		"twigdb_prepare_stats_seconds_count",
		"twigdb_prepare_node_table_seconds_count",
		`twigdb_index_maintain_seconds_count{kind="rootpaths"}`,
		`twigdb_index_maintain_seconds_count{kind="datapaths"}`,
		`twigdb_prepare_pages_copied_count{tree="rootpaths"}`,
		`twigdb_prepare_pages_copied_count{tree="datapaths"}`,
		`twigdb_prepare_pages_copied_count{tree="nodes"}`,
	} {
		if series[k] != "3" {
			t.Errorf("%s = %q, want 3", k, series[k])
		}
	}
	for _, tree := range []string{"rootpaths", "datapaths", "nodes"} {
		k := `twigdb_prepare_pages_copied_sum{tree="` + tree + `"}`
		if series[k] == "0" || series[k] == "" {
			t.Errorf("%s = %q, want the pages the first insert copied", k, series[k])
		}
	}
}

// TestPoolOwnedBytesAfterBuild: /metrics tells the pool's memory from its
// capacity. After Build, the full pool of an in-memory database owns no
// page buffer — every frame is the in-memory file's own page bytes — and
// misses keep it so; the same pool over a file owns a buffer per resident
// page.
func TestPoolOwnedBytesAfterBuild(t *testing.T) {
	const pages = 64
	var doc bytes.Buffer
	if err := xmldb.WriteXML(&doc, datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 10}).Root); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"", filepath.Join(t.TempDir(), "resident.twigdb")} {
		db, err := twigdb.Open(&twigdb.Options{Path: path, BufferPoolBytes: pages * 8192})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadXML(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildAll(); err != nil {
			t.Fatal(err)
		}
		residency := func(when string) (resident, owned string) {
			var b strings.Builder
			if err := db.WriteMetrics(&b); err != nil {
				t.Fatal(err)
			}
			m := checkPromText(t, b.String())
			resident, owned = m["twigdb_pool_resident_pages"], m["twigdb_pool_owned_bytes"]
			if resident != fmt.Sprint(pages) {
				t.Fatalf("%q %s: twigdb_pool_resident_pages = %q, want the full pool, %d", path, when, resident, pages)
			}
			return resident, owned
		}
		want := "0"
		if path != "" {
			want = fmt.Sprint(pages * 8192)
		}
		if _, owned := residency("after Build"); owned != want {
			t.Fatalf("%q after Build: twigdb_pool_owned_bytes = %q, want %s", path, owned, want)
		}
		for _, q := range []string{`//item[quantity='2']/name`, `//person/name`, `/site/regions//item/description`} {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		if _, owned := residency("after queries"); owned != want {
			t.Fatalf("%q after queries: twigdb_pool_owned_bytes = %q, want %s", path, owned, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
