package main

import "sort"

// metricDef names one metric the benchmark emits. BENCHMARK.json carries
// the same names, units and directions (bench_test.go checks the two stay
// equal); exact marks per-layer counts that must repeat exactly between
// two traced runs of one commit on one seed, which -compare enforces.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	exact  bool
}

// endToEnd is what a user of the library sees. Every workload reports
// every one of them for its primary operation (README.md says which
// operation that is per workload).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_us", unit: "us", better: "lower"},
	{name: "op_tail_us", unit: "us", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "heap_mb", unit: "MB", better: "lower"},
	{name: "space_amp", unit: "ratio", better: "lower"},
}

var queryGroups = []string{
	"single-path", "twig-selective", "twig-mixed", "twig-unselective",
	"twig-low-branch", "twig-recursive",
}

var planOps = []string{
	"scan", "hash-join", "inl-join", "path-filter", "structural-join",
	"region-scan", "project", "dedup",
}

// strategyKeys are the metric suffixes of the pinned-strategy passes, in
// the order of layers.go's pinnedStrategies.
var strategyKeys = []string{"rp", "dp", "edge", "dg-edge", "if-edge", "asr", "ji", "xrel", "sj"}

// perLayer lists the traced run's metrics, grouped by the package that
// does the work. A metric the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name: name, unit: unit, better: better}) }
	count := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better, exact: true})
	}

	add("xpath.parse_us", "us", "lower")

	add("engine.query_pattern_us", "us", "lower")
	add("engine.plan_cache_hit_rate", "ratio", "higher")

	add("plan.choose_us", "us", "lower")
	add("plan.execute_us", "us", "lower")
	for _, g := range queryGroups {
		add("plan.execute_us."+g, "us", "lower")
	}
	count("plan.rows_scanned_per_result", "ratio", "lower")
	count("plan.index_lookups_per_query", "count", "lower")
	count("plan.join_tuples_per_query", "count", "lower")
	count("plan.allocs_per_query", "count", "lower")
	for _, op := range planOps {
		add("plan.op_self_us."+op, "us", "lower")
	}
	for _, s := range strategyKeys {
		add("plan.strategy_us."+s, "us", "lower")
	}

	for _, k := range []string{"rootpaths", "datapaths", "all"} {
		add("index.build_s."+k, "s", "lower")
	}
	for _, k := range []string{"rootpaths", "datapaths", "total"} {
		count("index.bytes."+k, "bytes", "lower")
	}

	add("idlist.decode_ns_per_id", "ns", "lower")

	add("btree.seek_us.hot", "us", "lower")
	add("btree.seek_us.cold", "us", "lower")
	count("btree.pages_per_seek", "count", "lower")
	add("btree.next_ns", "ns", "lower")

	add("storage.pool.hit_rate", "ratio", "higher")
	add("storage.pool.evictions_per_query", "count", "lower")
	add("storage.pool.fetch_hit_ns", "ns", "lower")
	add("storage.pool.fetch_miss_us", "us", "lower")

	count("storage.device.reads_per_query", "count", "lower")
	count("storage.device.read_bytes_per_query", "bytes", "lower")
	add("storage.device.read_us", "us", "lower")
	count("storage.wal_bytes_per_commit", "bytes", "lower")
	count("storage.wal_frames_per_commit", "count", "lower")
	count("storage.fsyncs_per_commit", "count", "lower")
	add("storage.fsync_ms", "ms", "lower")
	count("storage.device.writes_per_commit", "count", "lower")
	count("storage.pages_freed_per_commit", "count", "lower")
	count("storage.pages_reused_per_commit", "count", "lower")
	add("storage.group_commit_batch_mean", "count", "higher")
	add("storage.checkpoint.count", "count", "higher")
	add("storage.checkpoint.ms_total", "ms", "lower")
	add("storage.checkpoint.bytes_written", "bytes", "lower")
	add("storage.file_growth_ratio", "ratio", "lower")
	add("storage.write_amp", "ratio", "lower")

	add("engine.tx_prepare_ms", "ms", "lower")
	add("engine.tx_commit_ms", "ms", "lower")
	add("engine.commit_nonfsync_ms", "ms", "lower")
	add("engine.commit_max_ms", "ms", "lower")
	add("engine.commit_ms_ratio_4x", "ratio", "lower")
	add("engine.tx_conflicts", "count", "lower")
	add("engine.tx_retries", "count", "lower")
	add("engine.recovered_commits", "count", "lower")
	add("engine.reopen_ms", "ms", "lower")

	add("stats.collect_ms", "ms", "lower")

	add("xmldb.clone_for_write_ms", "ms", "lower")
	add("xmldb.parse_mb_per_s", "MB/s", "higher")

	add("obs.trace_overhead_pct", "%", "lower")
	add("obs.telescope_err_pct", "%", "lower")
	add("setup.gen_s", "s", "lower")
	add("setup.load_s", "s", "lower")
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition list; emit fails on a
// name outside the list, and fill reports 0 for anything not set.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

func (m *metricSet) result() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metric{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
