package main

// layers.go holds every call the benchmark makes into repro/internal/...:
// input generation, and the traced run's stepped operations and layer
// probes. The other files use only the public package (twigdb "repro"),
// so a refactor of plan or engine entry points breaks this file and no
// other. README.md lists the exported functions called here.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/idlist"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// query is one query text of a workload's list.
type query struct {
	id    string
	group string
	text  string
}

func fromWorkload(qs []workload.Query) []query {
	out := make([]query, len(qs))
	for i, q := range qs {
		out[i] = query{id: q.ID, group: string(q.Group), text: q.XPath}
	}
	return out
}

func xmarkQueries() []query { return fromWorkload(workload.XMark()) }
func dblpQueries() []query  { return fromWorkload(workload.DBLP()) }

func serialize(doc *xmldb.Document) []byte {
	var b bytes.Buffer
	if err := xmldb.WriteXML(&b, doc.Root); err != nil {
		panic(err) // a bytes.Buffer cannot fail a write
	}
	return b.Bytes()
}

func genXMarkXML(items int, seed int64) []byte {
	return serialize(datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: items, Seed: seed}))
}

func genDBLPXML(papers int, seed int64) []byte {
	return serialize(datagen.DBLP(datagen.DBLPConfig{Papers: papers, Seed: seed}))
}

// Fixed operation counts of the traced run: it is one session, the
// checkpointer parked, so that its counts repeat exactly.
const (
	// tracePasses is how often a read-only workload's query list is run,
	// stepped and again plain.
	tracePasses = 20
	// traceCommits is how many commits a workload with a writer makes,
	// stepped and again plain; the engine is checkpointed (synchronously,
	// outside any commit) every traceCheckpointEvery of each, and the last
	// batch stays in the WAL for the recovery probe.
	traceCommits         = 200
	traceCheckpointEvery = 50
	// tracePassesPerCommit interleaves the mixed workloads' reader with
	// their writer at about the ratio the concurrent run shows on the seed
	// code (~130 queries per publish).
	tracePassesPerCommit = 8
	// traceLive is the insertDelete writer's live window in the traced
	// run: 200 commits never reach the untraced run's window.
	traceLive = 20
	// probeRepeats is how often a micro-probe or a pinned plan is timed
	// per input; the median is kept.
	probeRepeats = 5
	// probeColdPoolBytes is the small pool of the cold descent probe: it
	// keeps a tree's upper levels and misses on its leaves.
	probeColdPoolBytes = 256 << 10
	// parkedCheckpointWAL keeps the background checkpointer asleep.
	parkedCheckpointWAL = 1 << 40
)

// pinnedStrategies are the paper's Section 5 strategies, in the order of
// metrics.go's strategyKeys.
var pinnedStrategies = []plan.Strategy{
	plan.RootPathsPlan, plan.DataPathsPlan, plan.EdgePlan, plan.DataGuideEdgePlan,
	plan.FabricEdgePlan, plan.ASRPlan, plan.JoinIndexPlan, plan.XRelPlan, plan.StructuralJoinPlan,
}

// otherKinds is what BuildAll builds beyond ROOTPATHS and DATAPATHS.
var otherKinds = []index.Kind{
	index.KindEdge, index.KindDataGuide, index.KindIndexFabric,
	index.KindASR, index.KindJoinIndex, index.KindXRel,
}

// counters is everything the engine exports that the traced run
// differences at operation boundaries.
type counters struct {
	pool storage.PoolStats
	dev  storage.DeviceStats
	q    stats.QuerySnapshot
}

func sample(db *engine.DB) counters {
	return counters{pool: db.PoolStats(), dev: db.DeviceStats(), q: db.QueryCounters()}
}

// readTotals accumulates the read side of a drive.
type readTotals struct {
	queries, counted, results    int64 // counted: queries inside the counter differences
	rowsScanned, lookups, joinIn int64
	fetches, hits, misses        int64
	devReads, devReadBytes       int64
	cacheQueries, cacheHits      int64
	perQuery                     []latencies // whole-operation latency per query index
	parse, exec                  []latencies // stepped operations only, per query index
	failed                       int64
	firstErr                     string
}

// writeTotals accumulates the write side of a drive.
type writeTotals struct {
	attempted, commits                    int64
	op, prepare, commit                   latencies
	fsyncNS                               int64
	fsyncs, walAppends, devWrites         int64
	bytesWritten, pagesFreed, pagesReused int64
	batchCount, batchSum                  int64
	conflicts, retries                    int64
	xmlBytes                              int64
	checkpoints                           int64
	checkpointNS, checkpointBytes         int64
	failed                                int64
	firstErr                              string
}

// traced is the state of one traced run.
type traced struct {
	cfg      *runConfig
	db       *engine.DB
	tr       *tracer
	queries  []query
	pats     []*xpath.Pattern
	expected [][]int64

	// The benchmark's stand-in for the snapshot plan cache in stepped
	// drives: keyed like the engine's, emptied when a publish changes the
	// current sequence.
	cache    map[string]*plan.Tree
	cacheSeq uint64

	// Writer state, as in run.go's writer but against engine.Tx.
	parents []int64
	live    []int64
	zones   [][]int64
	nextZ   int
	seq     int
}

func (r *readTotals) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func (w *writeTotals) fail(format string, args ...any) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
}

// steppedQuery runs one query through xpath.Parse, the plan cache or
// plan.Choose, and plan.ExecuteTree — the steps DB.Query takes — with a
// span around each.
func (t *traced) steppedQuery(r *readTotals, qi int) {
	r.queries++
	m0 := t.tr.now()
	pat, err := xpath.Parse(t.queries[qi].text)
	m1 := t.tr.now()
	if err != nil {
		r.fail("parse %s: %v", t.queries[qi].id, err)
		return
	}
	env := t.db.Env()
	if seq := t.db.CurrentSeq(); t.cache == nil || seq != t.cacheSeq {
		t.cache, t.cacheSeq = map[string]*plan.Tree{}, seq
	}
	key := pat.String()
	tree, hit := t.cache[key]
	m2 := t.tr.now()
	m3 := m2
	chooseSpan := ""
	if !hit {
		tree, _, err = plan.Choose(env, pat)
		m3 = t.tr.now()
		chooseSpan = "plan.choose"
		if err != nil {
			r.fail("choose %s: %v", t.queries[qi].id, err)
			return
		}
		t.cache[key] = tree
	}
	ids, es, err := plan.ExecuteTree(env, tree)
	m4 := t.tr.now()
	t.tr.record("query", []int64{m0, m1, m2, m3, m4},
		[]string{"xpath.parse", "engine.dispatch", chooseSpan, "plan.execute"})
	r.perQuery[qi].add(time.Duration(m4 - m0))
	r.parse[qi].add(time.Duration(m1 - m0))
	r.exec[qi].add(time.Duration(m4 - m3))
	t.checkQuery(r, qi, ids, es, err)
}

// plainQuery is the same operation through the engine's own entry point —
// what twigdb.DB.Query calls — timed as a whole.
func (t *traced) plainQuery(r *readTotals, qi int) {
	r.queries++
	start := time.Now()
	pat, err := xpath.Parse(t.queries[qi].text)
	if err != nil {
		r.fail("parse %s: %v", t.queries[qi].id, err)
		return
	}
	ids, es, _, err := t.db.QueryPatternBest(pat, 1)
	r.perQuery[qi].add(time.Since(start))
	t.checkQuery(r, qi, ids, es, err)
}

func (t *traced) checkQuery(r *readTotals, qi int, ids []int64, es *plan.ExecStats, err error) {
	if err != nil {
		r.fail("query %s: %v", t.queries[qi].id, err)
		return
	}
	if !slices.Equal(ids, t.expected[qi]) {
		r.fail("query %s: %d ids, oracle has %d", t.queries[qi].id, len(ids), len(t.expected[qi]))
	}
	r.results += int64(len(ids))
	r.rowsScanned += es.RowsScanned
	r.lookups += es.IndexLookups
	r.joinIn += es.Join.TuplesIn
}

// pass runs the query list once, in list order, and differences the pool,
// device and plan-cache counters around it when counted is set (a
// read-only workload's first pass warms the caches and is not).
func (t *traced) pass(r *readTotals, stepped, counted bool) {
	before := sample(t.db)
	for qi := range t.queries {
		if stepped {
			t.steppedQuery(r, qi)
		} else {
			t.plainQuery(r, qi)
		}
	}
	if !counted {
		return
	}
	after := sample(t.db)
	r.counted += int64(len(t.queries))
	r.fetches += after.pool.Fetches - before.pool.Fetches
	r.hits += after.pool.Hits - before.pool.Hits
	r.misses += after.pool.PageReads - before.pool.PageReads
	r.devReads += after.dev.Reads - before.dev.Reads
	r.devReadBytes += after.dev.BytesRead - before.dev.BytesRead
	r.cacheQueries += after.q.Queries - before.q.Queries
	r.cacheHits += after.q.PlanCacheHits - before.q.PlanCacheHits
}

// commitOp is one commit of the workload's writer: the parsed subtrees to
// insert under parent, and the node to delete (0 = none).
type commitOp struct {
	frags  []string
	parent int64
	del    int64
	zone   int
}

// nextCommit draws the writer's next operation. insertDelete alternates
// an insert with a delete of the oldest listing once traceLive are live;
// zoneUpdate is run.go's four-statement transaction.
func (t *traced) nextCommit(rng *rand.Rand, w *workloadSpec) commitOp {
	if w.writer == zoneUpdate {
		z := t.nextZ
		t.nextZ = (t.nextZ + 1) % len(t.zones)
		op := commitOp{parent: t.parents[z], zone: z}
		inserts := 4
		if len(t.zones[z]) >= zoneEntries {
			inserts, op.del = 3, t.zones[z][0]
		}
		for i := 0; i < inserts; i++ {
			t.seq++
			op.frags = append(op.frags, entryXML(t.seq, rng))
		}
		return op
	}
	if len(t.live) > traceLive {
		return commitOp{del: t.live[0]}
	}
	t.seq++
	return commitOp{
		frags:  []string{listingXML(t.seq, rng)},
		parent: t.parents[rng.Intn(len(t.parents))],
	}
}

// applied records an acknowledged commit in the writer's live sets.
func (t *traced) applied(w *workloadSpec, op commitOp, ids []int64) {
	if w.writer == zoneUpdate {
		if op.del != 0 {
			t.zones[op.zone] = t.zones[op.zone][1:]
		}
		t.zones[op.zone] = append(t.zones[op.zone], ids...)
		return
	}
	if op.del != 0 {
		t.live = t.live[1:]
	}
	t.live = append(t.live, ids...)
}

// commit runs one writer operation. Stepped, it goes xmldb.ParseString →
// engine.Begin + Tx.Insert/Delete → Tx.Commit with a span around each;
// plain, through the entry points the public Insert/Delete/Update call.
func (t *traced) commit(w *writeTotals, spec *workloadSpec, op commitOp, stepped bool) {
	w.attempted++
	before := sample(t.db)
	fsyncBefore := t.db.Obs().WALFsyncLatency.Snapshot()
	batchBefore := t.db.Obs().GroupCommitBatch.Snapshot()

	var ids []int64
	var err error
	if stepped {
		ids, err = t.steppedCommit(w, op)
	} else {
		start := time.Now()
		ids, err = t.plainCommit(spec, op)
		w.op.add(time.Since(start))
	}
	if err != nil {
		w.fail("commit: %v", err)
		return
	}
	t.applied(spec, op, ids)

	after := sample(t.db)
	fsync := t.db.Obs().WALFsyncLatency.Snapshot().Sub(fsyncBefore)
	batch := t.db.Obs().GroupCommitBatch.Snapshot().Sub(batchBefore)
	w.commits++
	w.fsyncNS += fsync.Sum
	w.fsyncs += after.dev.WALFsyncs - before.dev.WALFsyncs
	w.walAppends += after.dev.WALAppends - before.dev.WALAppends
	w.devWrites += after.dev.Writes - before.dev.Writes
	w.bytesWritten += after.dev.BytesWritten - before.dev.BytesWritten
	w.pagesFreed += after.dev.PagesFreed - before.dev.PagesFreed
	w.pagesReused += after.dev.PagesReused - before.dev.PagesReused
	w.batchCount += batch.Count
	w.batchSum += batch.Sum
	w.conflicts += after.q.TxConflicts - before.q.TxConflicts
	w.retries += after.q.TxRetries - before.q.TxRetries
	for _, f := range op.frags {
		w.xmlBytes += int64(len(f))
	}
}

func parseFrags(frags []string) ([]*xmldb.Node, error) {
	roots := make([]*xmldb.Node, len(frags))
	for i, f := range frags {
		doc, err := xmldb.ParseString(f)
		if err != nil {
			return nil, err
		}
		roots[i] = doc.Root
	}
	return roots, nil
}

func (t *traced) steppedCommit(w *writeTotals, op commitOp) ([]int64, error) {
	m0 := t.tr.now()
	roots, err := parseFrags(op.frags)
	m1 := t.tr.now()
	if err != nil {
		return nil, err
	}
	tx := t.db.Begin()
	for _, root := range roots {
		if err = tx.Insert(op.parent, root); err != nil {
			break
		}
	}
	if err == nil && op.del != 0 {
		err = tx.Delete(op.del)
	}
	m2 := t.tr.now()
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	err = tx.Commit()
	m3 := t.tr.now()
	t.tr.record("commit", []int64{m0, m1, m2, m3}, []string{"xmldb.parse", "engine.tx_prepare", "engine.tx_commit"})
	w.op.add(time.Duration(m3 - m0))
	w.prepare.add(time.Duration(m2 - m1))
	w.commit.add(time.Duration(m3 - m2))
	return rootIDs(roots), err
}

func (t *traced) plainCommit(spec *workloadSpec, op commitOp) ([]int64, error) {
	if spec.writer == zoneUpdate {
		var roots []*xmldb.Node
		err := t.db.Update(func(tx *engine.Tx) error {
			var err error
			if roots, err = parseFrags(op.frags); err != nil {
				return err
			}
			for _, root := range roots {
				if err := tx.Insert(op.parent, root); err != nil {
					return err
				}
			}
			if op.del != 0 {
				return tx.Delete(op.del)
			}
			return nil
		}, 8)
		return rootIDs(roots), err
	}
	if op.del != 0 {
		return nil, t.db.DeleteSubtree(op.del)
	}
	roots, err := parseFrags(op.frags)
	if err != nil {
		return nil, err
	}
	// InsertSubtree numbers the subtree; its ids are read afterwards.
	err = t.db.InsertSubtree(op.parent, roots[0])
	return rootIDs(roots), err
}

func rootIDs(roots []*xmldb.Node) []int64 {
	ids := make([]int64, len(roots))
	for i, r := range roots {
		ids[i] = r.ID
	}
	return ids
}

// checkpoint forces a synchronous full checkpoint between commits and
// books its cost.
func (t *traced) checkpoint(w *writeTotals) error {
	before := t.db.DeviceStats()
	start := time.Now()
	if err := t.db.Checkpoint(); err != nil {
		return err
	}
	w.checkpointNS += int64(time.Since(start))
	after := t.db.DeviceStats()
	w.checkpoints += after.Checkpoints - before.Checkpoints
	w.checkpointBytes += after.BytesWritten - before.BytesWritten
	return nil
}

// drive runs the workload's fixed operation sequence: commits of its
// writer, each followed by passes of its reader; or, read-only, the passes
// alone. Every operation runs once stepped, recording spans, and once
// plain, through the engine's own entry points. The two alternate — whole
// passes read-only, otherwise whole iterations of a commit and the passes
// after it — so both meet the same caches and the same growing database,
// and the gap between them is what the spans and counter samples cost.
func (t *traced) drive() (sr, pr *readTotals, sw, pw *writeTotals, err error) {
	spec := t.cfg.spec
	n := len(t.queries)
	newRead := func() *readTotals {
		return &readTotals{perQuery: make([]latencies, n), parse: make([]latencies, n), exec: make([]latencies, n)}
	}
	reads := [2]*readTotals{newRead(), newRead()} // plain, stepped
	writes := [2]*writeTotals{{}, {}}
	if spec.writer == noWriter {
		// Each mode's first pass warms its caches and is not counted.
		for p := 0; p < 2*(tracePasses+1); p++ {
			t.pass(reads[p%2], p%2 == 1, p >= 2)
		}
		return reads[1], reads[0], writes[1], writes[0], nil
	}
	// Modes switch every second iteration: the insertDelete writer
	// alternates inserts with deletes, and each mode must see both.
	rng := rngFor(t.cfg.seed, streamWriter)
	for i := 0; i < 2*traceCommits; i++ {
		mode := i / 2 % 2
		t.commit(writes[mode], spec, t.nextCommit(rng, spec), mode == 1)
		if spec.readers > 0 {
			for p := 0; p < tracePassesPerCommit; p++ {
				t.pass(reads[mode], mode == 1, true)
			}
		}
		if done := i + 1; done%(2*traceCheckpointEvery) == 0 && done < 2*traceCommits && spec.fileBacked {
			if err := t.checkpoint(writes[1]); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return reads[1], reads[0], writes[1], writes[0], nil
}

// engineSetUp is set-up through the engine, split into the parts the
// per-layer metrics name. It leaves the database open as the timed phase
// would find it (file-backed: closed and reopened with the workload's
// pool, the checkpointer parked).
func (c *runConfig) engineSetUp(dir string, scaleDiv int, m *metricSet) (*engine.DB, inputs, error) {
	spec := c.spec
	start := time.Now()
	in := spec.generate(c.dataSeed, scaleDiv)
	genS := time.Since(start).Seconds()

	cfg := engine.DefaultConfig()
	cfg.CheckpointWALBytes = parkedCheckpointWAL
	if spec.fileBacked {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, in, err
		}
		cfg.Path = filepath.Join(dir, "bench.twigdb")
	}
	db, err := engine.Open(cfg)
	if err != nil {
		return nil, in, err
	}
	start = time.Now()
	for _, doc := range in.docs {
		if err := db.LoadXML(bytes.NewReader(doc)); err != nil {
			return nil, in, fmt.Errorf("load: %w", err)
		}
	}
	loadS := time.Since(start).Seconds()

	build := func(kinds ...index.Kind) (float64, error) {
		start := time.Now()
		err := db.Build(kinds...)
		return time.Since(start).Seconds(), err
	}
	rpS, err := build(index.KindRootPaths)
	if err != nil {
		return nil, in, err
	}
	dpS, err := build(index.KindDataPaths)
	if err != nil {
		return nil, in, err
	}
	allS := rpS + dpS
	if spec.allIndexes {
		restS, err := build(otherKinds...)
		if err != nil {
			return nil, in, err
		}
		allS += restS
	}
	if m != nil {
		m.set("setup.gen_s", genS)
		m.set("setup.load_s", loadS)
		m.set("index.build_s.rootpaths", rpS)
		m.set("index.build_s.datapaths", dpS)
		m.set("index.build_s.all", allS)
		var total int64
		for _, s := range db.Spaces() {
			total += s.Bytes
			switch s.Kind {
			case index.KindRootPaths:
				m.set("index.bytes.rootpaths", float64(s.Bytes))
			case index.KindDataPaths:
				m.set("index.bytes.datapaths", float64(s.Bytes))
			}
		}
		m.set("index.bytes.total", float64(total))

		// Parse speed on the XMark document, which every workload loads
		// first.
		start = time.Now()
		if _, err := xmldb.Parse(bytes.NewReader(in.docs[0])); err != nil {
			return nil, in, err
		}
		m.set("xmldb.parse_mb_per_s", float64(len(in.docs[0]))/(1<<20)/time.Since(start).Seconds())
	}
	if !spec.fileBacked {
		return db, in, nil
	}
	if err := db.Close(); err != nil {
		return nil, in, fmt.Errorf("close: %w", err)
	}
	if spec.poolBytes > 0 {
		cfg.BufferPoolBytes = spec.poolBytes
	}
	start = time.Now()
	db, err = engine.Open(cfg)
	if err != nil {
		return nil, in, fmt.Errorf("reopen: %w", err)
	}
	if m != nil {
		m.set("engine.reopen_ms", time.Since(start).Seconds()*1e3)
	}
	return db, in, nil
}

// prepare parses the query list, takes the oracle's answers and finds the
// writer's parents.
func (t *traced) prepare(in inputs) error {
	spec := t.cfg.spec
	t.queries = in.queries
	if spec.readers == 0 {
		t.queries = nil
	}
	for _, q := range t.queries {
		pat, err := xpath.Parse(q.text)
		if err != nil {
			return fmt.Errorf("parse %s: %w", q.id, err)
		}
		t.pats = append(t.pats, pat)
		t.expected = append(t.expected, t.db.MatchNaive(pat))
	}
	if spec.writer == noWriter {
		return nil
	}
	parentsQuery := itemsQuery
	if spec.writer == zoneUpdate {
		parentsQuery = zonesQuery
	}
	pat, err := xpath.Parse(parentsQuery)
	if err != nil {
		return err
	}
	// Through the planner, as run.go finds them: that collects the
	// statistics, and from then on every commit re-derives them — the
	// state any database that has answered a query is in.
	t.parents, _, _, err = t.db.QueryPatternBest(pat, 1)
	if err != nil {
		return err
	}
	if len(t.parents) == 0 {
		return fmt.Errorf("no parents for the writer (%s)", parentsQuery)
	}
	t.zones = make([][]int64, len(t.parents))
	return nil
}

// meanOfMedians is the expected per-operation cost over the uniform mix:
// the median of each input's samples, averaged over the inputs that have
// any, in microseconds. keep filters inputs by index (nil keeps all).
func meanOfMedians(per []latencies, keep func(i int) bool) float64 {
	sum, n := 0.0, 0
	for i, l := range per {
		if len(l) == 0 || (keep != nil && !keep(i)) {
			continue
		}
		sum += medianNS(l)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTraced is the traced run: per-layer metrics from stepped operations,
// counters differenced at their boundaries, and micro-probes of the layers
// below the executor on the same database.
func (c *runConfig) runTraced(log io.Writer, traceOut string) (*runResult, error) {
	spec := c.spec
	dir := filepath.Join(c.workdir, fmt.Sprintf("%s-seed%d-pid%d-trace", spec.name, c.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	m := newMetricSet(perLayer)

	db, in, err := c.engineSetUp(filepath.Join(dir, "db"), c.scaleDiv, m)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t := &traced{cfg: c, db: db, tr: newTracer()}
	if err := t.prepare(in); err != nil {
		db.Close()
		return nil, err
	}
	startBytes := db.DeviceStats().FileBytes

	sr, pr, sw, pw, err := t.drive()
	if err != nil {
		db.Close()
		return nil, err
	}
	if len(t.queries) > 0 {
		if err := t.readMetrics(m, sr, pr); err != nil {
			db.Close()
			return nil, err
		}
	}
	if spec.writer != noWriter {
		if err := t.writeMetrics(m, sw, dir, startBytes); err != nil {
			db.Close()
			return nil, err
		}
	}
	steppedNS := sumMedians(sr.perQuery) + float64(len(sw.op))*medianNS(sw.op)
	plainNS := sumMedians(pr.perQuery) + float64(len(pw.op))*medianNS(pw.op)
	if plainNS > 0 {
		m.set("obs.trace_overhead_pct", (steppedNS-plainNS)/plainNS*100)
	}
	m.set("obs.telescope_err_pct", t.tr.telescopeErrPct())

	if err := t.probes(m, in); err != nil {
		db.Close()
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if spec.writer != noWriter {
		if err := c.commitRatio(m, sw, filepath.Join(dir, "quarter")); err != nil {
			return nil, fmt.Errorf("quarter-scale probe: %w", err)
		}
	}
	if traceOut != "" {
		if err := t.tr.writeTo(traceOut); err != nil {
			return nil, err
		}
	}
	for _, e := range []string{sr.firstErr, pr.firstErr, sw.firstErr, pw.firstErr} {
		if e != "" {
			fmt.Fprintf(log, "first failure: %s\n", e)
			break
		}
	}
	failed := sr.failed + pr.failed + sw.failed + pw.failed
	attempted := sr.queries + pr.queries + sw.attempted + pw.attempted
	return &runResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.result()}, nil
}

func sumMedians(per []latencies) float64 {
	sum := 0.0
	for _, l := range per {
		if len(l) > 0 {
			sum += medianNS(l) * float64(len(l))
		}
	}
	return sum
}

// readMetrics fills the xpath, engine (read) and plan metrics.
func (t *traced) readMetrics(m *metricSet, sr, pr *readTotals) error {
	env := t.db.Env()
	m.set("xpath.parse_us", meanOfMedians(sr.parse, nil))
	m.set("plan.execute_us", meanOfMedians(sr.exec, nil))
	for _, g := range queryGroups {
		g := g
		m.set("plan.execute_us."+g, meanOfMedians(sr.exec, func(i int) bool { return t.queries[i].group == g }))
	}
	m.set("plan.rows_scanned_per_result", ratio(sr.rowsScanned, sr.results))
	m.set("plan.index_lookups_per_query", ratio(sr.lookups, sr.queries))
	m.set("plan.join_tuples_per_query", ratio(sr.joinIn, sr.queries))
	m.set("engine.plan_cache_hit_rate", ratio(pr.cacheHits, pr.cacheQueries))
	m.set("storage.pool.hit_rate", ratio(sr.hits, sr.fetches))
	m.set("storage.device.reads_per_query", ratio(sr.devReads, sr.counted))
	m.set("storage.device.read_bytes_per_query", ratio(sr.devReadBytes, sr.counted))
	// Once the pool is full every miss evicts a page; a database that
	// fits the pool never evicts.
	if t.db.Device().NumPages() > t.db.Pool().Capacity() {
		m.set("storage.pool.evictions_per_query", ratio(sr.misses, sr.counted))
	}

	// Pre-parsed pattern to ids through the engine, plan cache warm; and
	// the planner alone, which is what a cache miss costs.
	n := len(t.pats)
	viaEngine, choose := make([]latencies, n), make([]latencies, n)
	trees := make([]*plan.Tree, n)
	for i, pat := range t.pats {
		for k := 0; k < tracePasses; k++ {
			start := time.Now()
			_, _, _, _ = t.db.QueryPatternBest(pat, 1)
			viaEngine[i].add(time.Since(start))
			start = time.Now()
			tree, _, err := plan.Choose(env, pat)
			choose[i].add(time.Since(start))
			if err == nil {
				trees[i] = tree
			}
		}
	}
	m.set("engine.query_pattern_us", meanOfMedians(viaEngine, nil))
	m.set("plan.choose_us", meanOfMedians(choose, nil))

	// Operator self times from the executor's own EXPLAIN ANALYZE trace,
	// and allocations per execution of the cached tree.
	selfNS := map[string]float64{}
	var allocs float64
	var mem runtime.MemStats
	for _, tree := range trees {
		if tree == nil {
			continue
		}
		perOp := map[string]latencies{}
		for k := 0; k < probeRepeats; k++ {
			_, es, err := plan.ExecuteTreeTraced(env, tree)
			if err != nil || es.Plan == nil {
				continue
			}
			sums := map[string]int64{}
			es.Plan.Walk(func(node *plan.Node, _ int) {
				if node.ActRows >= 0 {
					sums[node.Kind.String()] += node.SelfNS
				}
			})
			for op, ns := range sums {
				l := perOp[op]
				l.add(time.Duration(ns))
				perOp[op] = l
			}
		}
		for op, l := range perOp {
			selfNS[op] += medianNS(l)
		}
		const runs = 50
		runtime.ReadMemStats(&mem)
		before := mem.Mallocs
		for k := 0; k < runs; k++ {
			_, _, _ = plan.ExecuteTree(env, tree)
		}
		runtime.ReadMemStats(&mem)
		allocs += float64((mem.Mallocs - before) / runs)
	}
	for _, op := range planOps {
		m.set("plan.op_self_us."+op, selfNS[op]/float64(n)/1e3)
	}
	m.set("plan.allocs_per_query", allocs/float64(n))

	// The paper's Section 5 comparison: the same mix with the strategy
	// pinned. A strategy whose index this workload did not build reads 0;
	// a query a strategy cannot plan is left out of its mean. The
	// structural-join strategy's index is not part of BuildAll, so it is
	// built only now, after everything the planner chose on its own.
	if t.cfg.spec.allIndexes {
		if err := t.db.Build(index.KindContainment); err != nil {
			return err
		}
		env = t.db.Env()
	}
	for si, strat := range pinnedStrategies {
		per := make([]latencies, n)
		for i, pat := range t.pats {
			tree, err := plan.Build(env, strat, pat)
			if err != nil {
				continue
			}
			for k := 0; k < probeRepeats; k++ {
				start := time.Now()
				ids, _, err := plan.ExecuteTree(env, tree)
				if err != nil || !slices.Equal(ids, t.expected[i]) {
					per[i] = nil
					break
				}
				per[i].add(time.Since(start))
			}
		}
		m.set("plan.strategy_us."+strategyKeys[si], meanOfMedians(per, nil))
	}
	return nil
}

// writeMetrics fills the storage (device/WAL) and engine (write) metrics
// from the stepped drive, then probes recovery on a copy of the files
// taken without Close.
func (t *traced) writeMetrics(m *metricSet, w *writeTotals, dir string, startBytes int64) error {
	ms := func(ns float64) float64 { return ns / 1e6 }
	m.set("engine.tx_prepare_ms", ms(medianNS(w.prepare)))
	m.set("engine.tx_commit_ms", ms(medianNS(w.commit)))
	meanFsync := 0.0
	if w.fsyncs > 0 {
		meanFsync = float64(w.fsyncNS) / float64(w.fsyncs)
	}
	m.set("storage.fsync_ms", ms(meanFsync))
	var sumCommit, maxCommit int64
	for _, ns := range w.commit {
		sumCommit += ns
		if ns > maxCommit {
			maxCommit = ns
		}
	}
	m.set("engine.commit_nonfsync_ms", ms(float64(sumCommit-w.fsyncNS)/float64(len(w.commit))))
	m.set("engine.commit_max_ms", ms(float64(maxCommit)))
	m.set("engine.tx_conflicts", float64(w.conflicts))
	m.set("engine.tx_retries", float64(w.retries))
	m.set("storage.wal_bytes_per_commit", ratio(w.bytesWritten, w.commits))
	m.set("storage.wal_frames_per_commit", ratio(w.walAppends, w.commits))
	m.set("storage.fsyncs_per_commit", ratio(w.fsyncs, w.commits))
	m.set("storage.device.writes_per_commit", ratio(w.devWrites, w.commits))
	m.set("storage.pages_freed_per_commit", ratio(w.pagesFreed, w.commits))
	m.set("storage.pages_reused_per_commit", ratio(w.pagesReused, w.commits))
	m.set("storage.group_commit_batch_mean", ratio(w.batchSum, w.batchCount))
	m.set("storage.checkpoint.count", float64(w.checkpoints))
	m.set("storage.checkpoint.ms_total", ms(float64(w.checkpointNS)))
	m.set("storage.checkpoint.bytes_written", float64(w.checkpointBytes))
	m.set("storage.write_amp", ratio(w.bytesWritten+w.checkpointBytes, w.xmlBytes))
	if !t.cfg.spec.fileBacked {
		return nil
	}
	m.set("storage.file_growth_ratio", ratio(t.db.DeviceStats().FileBytes, startBytes))

	// Recovery: the commits since the last checkpoint are still in the WAL.
	src := filepath.Join(dir, "db", "bench.twigdb")
	dst := filepath.Join(dir, "crash-copy.twigdb")
	for _, suffix := range []string{"", ".wal"} {
		if err := copyFile(src+suffix, dst+suffix); err != nil {
			return err
		}
	}
	cfg := engine.DefaultConfig()
	cfg.Path = dst
	cfg.CheckpointWALBytes = parkedCheckpointWAL
	if t.cfg.spec.poolBytes > 0 {
		cfg.BufferPoolBytes = t.cfg.spec.poolBytes
	}
	start := time.Now()
	recovered, err := engine.Open(cfg)
	if err != nil {
		return fmt.Errorf("open the copy: %w", err)
	}
	m.set("engine.reopen_ms", time.Since(start).Seconds()*1e3)
	m.set("engine.recovered_commits", float64(recovered.DeviceStats().RecoveredCommits))
	want := map[int64]bool{}
	for _, id := range t.live {
		want[id] = true
	}
	for _, z := range t.zones {
		for _, id := range z {
			want[id] = true
		}
	}
	liveQuery := listingsQuery
	if t.cfg.spec.writer == zoneUpdate {
		liveQuery = entriesQuery
	}
	pat, err := xpath.Parse(liveQuery)
	if err != nil {
		recovered.Close()
		return err
	}
	got := recovered.MatchNaive(pat)
	lost := len(want)
	for _, id := range got {
		if want[id] {
			lost--
		} else {
			lost++
		}
	}
	for i := 0; i < lost; i++ {
		w.fail("acknowledged commit lost or deleted node present after recovery")
	}
	return recovered.Close()
}

// probes times the layers below the executor from outside, on the run's
// own database: B+-tree descents and iteration, IdList decoding, buffer
// pool hits and misses, raw device reads, statistics collection and the
// store's copy-on-write clone.
func (t *traced) probes(m *metricSet, in inputs) error {
	env := t.db.Env()
	if env.RP == nil {
		return fmt.Errorf("no ROOTPATHS index")
	}
	tree := env.RP.Tree()

	// One scan collects the probe inputs: every stride-th key, every
	// value's encoded IdList, and the iteration cost itself.
	const maxKeys = 2000
	entries := tree.Stats().Entries
	stride := int(entries/maxKeys) + 1
	var keys, lists [][]byte
	it, err := tree.Scan()
	if err != nil {
		return err
	}
	for i := 0; it.Valid(); it.Next() {
		if i%stride == 0 {
			keys = append(keys, append([]byte(nil), it.Key()...))
			lists = append(lists, append([]byte(nil), it.ValueRef()...))
		}
		i++
	}
	it.Close()
	if err := it.Err(); err != nil {
		return err
	}
	var probeErr error
	m.set("btree.next_ns", perItemNS(func() int {
		it, err := tree.Scan()
		if err != nil {
			probeErr = err
			return 0
		}
		n := 0
		for ; it.Valid(); it.Next() {
			n++
		}
		it.Close()
		return n
	}))

	var ids []int64
	m.set("idlist.decode_ns_per_id", perItemNS(func() int {
		total := 0
		for _, l := range lists {
			ids, _ = idlist.DecodeDeltaInto(ids[:0], l)
			total += len(ids)
		}
		return total
	}))

	// Descents: the engine's pool (everything the scan touched is hot)
	// against a second, small pool over the same device.
	if err := t.db.Pool().FlushAll(); err != nil {
		return err
	}
	seeks := func(tr *btree.Tree) (float64, error) {
		var pit btree.PrefixIterator
		var per latencies
		for k := 0; k < probeRepeats; k++ {
			start := time.Now()
			for _, key := range keys {
				if err := tr.SeekPrefixInto(key, &pit); err != nil {
					return 0, err
				}
				pit.Close()
			}
			per.add(time.Since(start) / time.Duration(len(keys)))
		}
		return medianNS(per) / 1e3, nil
	}
	before := t.db.PoolStats().Fetches
	hot, err := seeks(tree)
	if err != nil {
		return err
	}
	m.set("btree.seek_us.hot", hot)
	m.set("btree.pages_per_seek", ratio(t.db.PoolStats().Fetches-before, int64(probeRepeats*len(keys))))
	coldPool := storage.NewPool(t.db.Device(), probeColdPoolBytes)
	cold, err := seeks(btree.Open(coldPool, tree.Meta()))
	if err != nil {
		return err
	}
	m.set("btree.seek_us.cold", cold)

	// Pool and device: the tree's own pages, fetched through a pool that
	// holds them all, through one that holds almost none, and read raw.
	var pages []storage.PageID
	if err := tree.Walk(func(id storage.PageID) error { pages = append(pages, id); return nil }); err != nil {
		return err
	}
	if len(pages) > maxKeys {
		pages = pages[:maxKeys]
	}
	fetchAll := func(p *storage.Pool) error {
		for _, id := range pages {
			pg, err := p.Fetch(id)
			if err != nil {
				return err
			}
			if err := p.Unpin(pg, false); err != nil {
				return err
			}
		}
		return nil
	}
	big := storage.NewPool(t.db.Device(), int64(len(pages)+64)*storage.PageSize)
	if err := fetchAll(big); err != nil {
		return err
	}
	perFetch := func(p *storage.Pool) float64 {
		return perItemNS(func() int {
			if err := fetchAll(p); err != nil {
				probeErr = err
			}
			return len(pages)
		})
	}
	m.set("storage.pool.fetch_hit_ns", perFetch(big))
	m.set("storage.pool.fetch_miss_us", perFetch(storage.NewPool(t.db.Device(), 8*storage.PageSize))/1e3)
	buf := make([]byte, storage.PageSize)
	dev := t.db.Device()
	m.set("storage.device.read_us", perItemNS(func() int {
		for _, id := range pages {
			if err := dev.Read(id, buf); err != nil {
				probeErr = err
			}
		}
		return len(pages)
	})/1e3)
	if probeErr != nil {
		return probeErr
	}

	// What every commit re-derives, and what a writer copies before it
	// touches the big document.
	store := t.db.Store()
	var collect, clone latencies
	target := store.Docs[0].Root.ID
	for k := 0; k < probeRepeats; k++ {
		start := time.Now()
		stats.Collect(store, t.db.Dict())
		collect.add(time.Since(start))
		start = time.Now()
		if _, _, err := store.CloneForWrite(target); err != nil {
			return err
		}
		clone.add(time.Since(start))
	}
	m.set("stats.collect_ms", medianNS(collect)/1e6)
	m.set("xmldb.clone_for_write_ms", medianNS(clone)/1e6)
	return nil
}

// perItemNS times fn probeRepeats times and returns the median cost per
// item it reports having processed, in nanoseconds with sub-nanosecond
// resolution.
func perItemNS(fn func() int) float64 {
	var per []float64
	for k := 0; k < probeRepeats; k++ {
		start := time.Now()
		n := fn()
		per = append(per, float64(time.Since(start))/float64(max(n, 1)))
	}
	return median(per)
}

// commitRatio builds the same recipe at a quarter of the XMark size and
// commits the same operations: engine.commit_ms_ratio_4x is how much of
// a commit's cost follows the database rather than the change (1.0 when
// cost is proportional to the change).
func (c *runConfig) commitRatio(m *metricSet, full *writeTotals, dir string) error {
	defer os.RemoveAll(dir)
	db, in, err := c.engineSetUp(dir, c.scaleDiv*4, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	t := &traced{cfg: c, db: db, tr: newTracer()}
	if err := t.prepare(in); err != nil {
		return err
	}
	w := &writeTotals{}
	rng := rngFor(c.seed, streamWriter)
	for i := 0; i < traceCommits/4; i++ {
		t.commit(w, c.spec, t.nextCommit(rng, c.spec), true)
	}
	if w.failed > 0 {
		return fmt.Errorf("%s", w.firstErr)
	}
	if q := medianNS(w.op); q > 0 {
		m.set("engine.commit_ms_ratio_4x", medianNS(full.op)/q)
	}
	return nil
}
