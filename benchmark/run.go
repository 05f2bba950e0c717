package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	twigdb "repro"
)

const (
	// rounds is how many timed rounds a run makes; every timing metric is
	// the median over the rounds of the per-round statistic.
	rounds = 5
	// setupRepeats is how often set-up runs; setup_s is the median and
	// the last database built is the one measured.
	setupRepeats = 3
	// sampleEvery: one in this many timed operations is checked against
	// the oracle, after its latency has been taken.
	sampleEvery = 100
	// tailPct is the percentile op_tail_us reports of the slowest kind of
	// operation: the highest with at least ten samples beyond it in a 3s
	// round, which holds ~100 commits, or ~600 runs of each query text on
	// the slowest read workload.
	tailPct = 0.90
)

// runConfig is one invocation's arguments.
type runConfig struct {
	spec     *workloadSpec
	seed     int64   // op streams: shuffle order, parents, payloads
	dataSeed int64   // documents
	seconds  float64 // total timed duration, split over rounds
	scaleDiv int     // 1 for real runs; >1 shrinks datasets (bench_test.go)
	setups   int
	workdir  string
}

// runResult is what a run reports: the contract's four keys plus what the
// result file keeps beside them.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Observed are numbers of the same run that BENCHMARK.json does not
	// bound: sample counts, the other session's latencies on the mixed
	// workloads, and counters differenced over the timed phase.
	Observed map[string]float64 `json:"observed,omitempty"`
}

// builtDB is the outcome of one set-up.
type builtDB struct {
	db      *twigdb.DB // open in-memory database; nil when file-backed (closed)
	path    string
	in      inputs
	seconds float64
	// dbBytes is what the database occupies after build (+ checkpoint):
	// the file for file-backed databases, the index pages otherwise.
	dbBytes int64
}

func (c *runConfig) options(path string) *twigdb.Options {
	return &twigdb.Options{Path: path, BufferPoolBytes: c.spec.poolBytes, CheckpointWALBytes: c.spec.ckptWAL}
}

// setUp generates the inputs, loads them, builds the indices and — for a
// file-backed workload — closes the database (commit + checkpoint), all
// through the public API. This is the interval setup_s times.
func (c *runConfig) setUp(dir string) (*builtDB, error) {
	start := time.Now()
	b := &builtDB{in: c.spec.generate(c.dataSeed, c.scaleDiv)}
	opts := &twigdb.Options{}
	if c.spec.fileBacked {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		b.path = filepath.Join(dir, "bench.twigdb")
		// Build with the default pool; the timed phase reopens with the
		// workload's own.
		opts.Path = b.path
	}
	db, err := twigdb.Open(opts)
	if err != nil {
		return nil, err
	}
	for _, doc := range b.in.docs {
		if err := db.LoadXML(bytes.NewReader(doc)); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	if c.spec.allIndexes {
		err = db.BuildAll()
	} else {
		err = db.Build(twigdb.RootPaths, twigdb.DataPaths)
	}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if c.spec.fileBacked {
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		st, err := os.Stat(b.path)
		if err != nil {
			return nil, err
		}
		b.dbBytes = st.Size()
	} else {
		b.db = db
		for _, s := range db.IndexSpaces() {
			b.dbBytes += s.Bytes
		}
	}
	b.seconds = time.Since(start).Seconds()
	return b, nil
}

// roundStats is one timed round of one kind of session.
type roundStats struct {
	p50, tail, perSec float64
	samples           int
}

// summarize reduces one round. byKind[k] holds the samples of operation
// kind k (a query text; a writer has one kind). Both statistics are taken
// per kind first: p50 is the median kind's median, tail the slowest kind's
// p90. With a mix of kinds whose latencies do not overlap, a percentile of
// the pooled samples sits in the gap between two kinds and jumps across it
// with the slightest change in their counts, and a pooled p99 of ~10^4
// samples is a handful of scheduler stalls; each kind's own median and p90
// are steady. The rate is over all samples.
func summarize(byKind []latencies, elapsed float64) roundStats {
	var medians []float64
	tail, n := 0.0, 0
	for _, l := range byKind {
		if len(l) == 0 {
			continue
		}
		s := sortedCopy(l)
		medians = append(medians, percentile(s, 0.5))
		tail = max(tail, percentile(s, tailPct))
		n += len(s)
	}
	return roundStats{
		p50:     median(medians) / 1e3,
		tail:    tail / 1e3,
		perSec:  float64(n) / elapsed,
		samples: n,
	}
}

// sideSummary is the median over the rounds of each per-round statistic.
type sideSummary struct {
	p50, tail, perSec float64
	samples           float64 // median per round
}

func overRounds(rs []roundStats) sideSummary {
	var p50, tail, per, n []float64
	for _, r := range rs {
		p50 = append(p50, r.p50)
		tail = append(tail, r.tail)
		per = append(per, r.perSec)
		n = append(n, float64(r.samples))
	}
	return sideSummary{p50: median(p50), tail: median(tail), perSec: median(per), samples: median(n)}
}

// tally counts operations and failures across sessions.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  string
}

func (t *tally) add(attempted int64) {
	t.mu.Lock()
	t.attempted += attempted
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// reader is one query session: it loops over the query texts in an order
// reshuffled per pass from its own seed stream.
type reader struct {
	queries  []query
	expected [][]int64 // oracle answers, fixed: nothing a writer touches matches these queries
	rng      *rand.Rand
	order    []int
	n        int
	lat      []latencies // per query index
	tally    *tally
}

func newReader(queries []query, expected [][]int64, seed int64, idx int, t *tally) *reader {
	r := &reader{queries: queries, expected: expected, rng: rngFor(seed, streamReader+idx), tally: t}
	r.lat = make([]latencies, len(queries))
	r.order = make([]int, len(queries))
	for i := range r.order {
		r.order[i] = i
	}
	return r
}

func (r *reader) run(db *twigdb.DB, deadline time.Time) {
	var attempted int64
	defer func() { r.tally.add(attempted) }()
	for {
		r.rng.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
		for _, qi := range r.order {
			start := time.Now()
			if !start.Before(deadline) {
				return
			}
			res, err := db.Query(r.queries[qi].text)
			r.lat[qi].add(time.Since(start))
			attempted++
			r.n++
			switch {
			case err != nil:
				r.tally.fail("query %s: %v", r.queries[qi].id, err)
			case r.n%sampleEvery == 0 && !slices.Equal(res.IDs, r.expected[qi]):
				r.tally.fail("query %s: %d ids, oracle has %d", r.queries[qi].id, len(res.IDs), len(r.expected[qi]))
			}
		}
	}
}

// writer is the one writer session of a workload. It keeps what it was
// told is durable — the live set — so the run can prove none of it is
// lost.
type writer struct {
	kind    writerKind
	rng     *rand.Rand
	parents []int64 // insertDelete: item ids; zoneUpdate: zone root ids
	live    []int64 // insertDelete: listing ids, oldest first
	zones   [][]int64
	nextZ   int
	seq     int
	n       int
	lat     latencies
	tally   *tally

	xmlBytes int64 // serialized bytes of inserted subtrees
}

func (w *writer) timed(op func() error) error {
	start := time.Now()
	err := op()
	w.lat.add(time.Since(start))
	w.n++
	return err
}

func (w *writer) run(db *twigdb.DB, deadline time.Time) {
	var attempted int64
	defer func() { w.tally.add(attempted) }()
	for time.Now().Before(deadline) {
		attempted++
		if w.kind == zoneUpdate {
			w.updateZone(db)
			continue
		}
		w.seq++
		frag := listingXML(w.seq, w.rng)
		parent := w.parents[w.rng.Intn(len(w.parents))]
		var id int64
		err := w.timed(func() (err error) { id, err = db.Insert(parent, frag); return })
		if err != nil {
			w.tally.fail("insert: %v", err)
			continue
		}
		w.xmlBytes += int64(len(frag))
		w.live = append(w.live, id)
		if w.n%sampleEvery == 0 {
			w.checkListing(db, w.seq, id)
		}
		if len(w.live) > liveListings {
			attempted++
			oldest := w.live[0]
			if err := w.timed(func() error { return db.Delete(oldest) }); err != nil {
				w.tally.fail("delete: %v", err)
				continue
			}
			w.live = w.live[1:]
		}
	}
}

// checkListing is the sampled correctness check of a commit: the listing
// just acknowledged must be what an indexed lookup by its id returns.
func (w *writer) checkListing(db *twigdb.DB, seq int, id int64) {
	res, err := db.Query(fmt.Sprintf(`//listing[@id='L%d']`, seq))
	if err != nil || len(res.IDs) != 1 || res.IDs[0] != id {
		w.tally.fail("listing L%d (node %d) not found after commit: %v", seq, id, err)
	}
}

// updateZone commits one transaction of four statements against the next
// zone document: inserts of 4-node entries, the fourth traded for a delete
// of the zone's oldest entry once it holds zoneEntries.
func (w *writer) updateZone(db *twigdb.DB) {
	z := w.nextZ
	w.nextZ = (w.nextZ + 1) % len(w.zones)
	inserts, deleteOldest := 4, false
	if len(w.zones[z]) >= zoneEntries {
		inserts, deleteOldest = 3, true
	}
	frags := make([]string, inserts)
	for i := range frags {
		w.seq++
		frags[i] = entryXML(w.seq, w.rng)
	}
	var ids []int64
	err := w.timed(func() error {
		return db.Update(func(tx *twigdb.Tx) error {
			ids = ids[:0] // the closure may run again after a conflict
			for _, f := range frags {
				id, err := tx.Insert(w.parents[z], f)
				if err != nil {
					return err
				}
				ids = append(ids, id)
			}
			if deleteOldest {
				return tx.Delete(w.zones[z][0])
			}
			return nil
		})
	})
	if err != nil {
		w.tally.fail("update zone %d: %v", z, err)
		return
	}
	for _, f := range frags {
		w.xmlBytes += int64(len(f))
	}
	if deleteOldest {
		w.zones[z] = w.zones[z][1:]
	}
	w.zones[z] = append(w.zones[z], ids...)
}

// liveIDs is every node id the writer was told is durable and has not
// deleted since.
func (w *writer) liveIDs() map[int64]bool {
	out := map[int64]bool{}
	for _, id := range w.live {
		out[id] = true
	}
	for _, z := range w.zones {
		for _, id := range z {
			out[id] = true
		}
	}
	return out
}

func (w *writer) liveQuery() string {
	if w.kind == zoneUpdate {
		return entriesQuery
	}
	return listingsQuery
}

// run executes the workload untraced and reports the end-to-end metrics.
func (c *runConfig) run(log io.Writer) (*runResult, error) {
	spec := c.spec
	dir := filepath.Join(c.workdir, fmt.Sprintf("%s-seed%d-pid%d", spec.name, c.seed, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up, repeated; the last database is the one measured.
	var built *builtDB
	var setupSecs []float64
	for i := 0; i < c.setups; i++ {
		built = nil // drop the previous in-memory database before building the next
		runtime.GC()
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		var err error
		if built, err = c.setUp(sub); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, built.seconds)
		if i < c.setups-1 {
			os.RemoveAll(sub)
		}
	}
	fmt.Fprintf(log, "set-up x%d: %v s\n", c.setups, setupSecs)

	open := func() (*twigdb.DB, float64, error) {
		if !spec.fileBacked {
			return built.db, 0, nil
		}
		start := time.Now()
		db, err := twigdb.Open(c.options(built.path))
		return db, time.Since(start).Seconds() * 1e3, err
	}
	db, _, err := open()
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}

	// Memory held after set-up, so work moved into set-up shows.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	// Every distinct query against the naive oracle.
	t := &tally{}
	queries := built.in.queries
	expected := make([][]int64, len(queries))
	for i, q := range queries {
		want, err := db.QueryWith(twigdb.Oracle, q.text)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.id, err)
		}
		expected[i] = want.IDs
		got, err := db.Query(q.text)
		t.add(1)
		if err != nil || !slices.Equal(got.IDs, want.IDs) {
			t.fail("set-up check %s: planner and oracle disagree (%v)", q.id, err)
		}
	}

	var readers []*reader
	for i := 0; i < spec.readers; i++ {
		readers = append(readers, newReader(queries, expected, c.seed, i, t))
	}
	var wr *writer
	if spec.writer != noWriter {
		wr = &writer{kind: spec.writer, rng: rngFor(c.seed, streamWriter), tally: t}
		parentsQuery := itemsQuery
		if spec.writer == zoneUpdate {
			parentsQuery = zonesQuery
		}
		res, err := db.Query(parentsQuery)
		if err != nil || len(res.IDs) == 0 {
			return nil, fmt.Errorf("no parents for the writer (%s): %v", parentsQuery, err)
		}
		wr.parents = res.IDs
		wr.zones = make([][]int64, len(res.IDs))
	}

	// One round: all sessions start together and stop at the deadline.
	runRound := func(d time.Duration) (elapsed float64) {
		for _, r := range readers {
			for qi := range r.lat {
				r.lat[qi] = r.lat[qi][:0]
			}
		}
		if wr != nil {
			wr.lat = wr.lat[:0]
		}
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for _, r := range readers {
			wg.Add(1)
			go func(r *reader) { defer wg.Done(); r.run(db, deadline) }(r)
		}
		if wr != nil {
			wg.Add(1)
			go func() { defer wg.Done(); wr.run(db, deadline) }()
		}
		wg.Wait()
		return time.Since(start).Seconds()
	}

	roundLen := time.Duration(c.seconds / rounds * float64(time.Second))
	var readRounds, writeRounds []roundStats
	var reopenMS []float64
	// Counters differenced around each timed round (a reopened database
	// starts them at zero) and summed.
	var devReads, devWritten, checkpoints, queriesRun, cacheHits, xmlInserted int64
	for round := -1; round < rounds; round++ {
		if spec.reopenPerRound && round >= 0 {
			// A cold pool every round: the first opening served the
			// warm-up round.
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			var ms float64
			if db, ms, err = open(); err != nil {
				return nil, fmt.Errorf("reopen: %w", err)
			}
			reopenMS = append(reopenMS, ms)
		}
		runtime.GC()
		if round < 0 {
			// Warm-up: caches fill and lazy set-up finishes; discarded.
			runRound(roundLen / 2)
			continue
		}
		before, qBefore := db.StorageStats(), db.QueryStats()
		if wr != nil {
			xmlInserted -= wr.xmlBytes
		}
		elapsed := runRound(roundLen)
		after, qAfter := db.StorageStats(), db.QueryStats()
		devReads += after.Reads - before.Reads
		devWritten += after.BytesWritten - before.BytesWritten
		checkpoints += after.Checkpoints - before.Checkpoints
		queriesRun += qAfter.Queries - qBefore.Queries
		cacheHits += qAfter.PlanCacheHits - qBefore.PlanCacheHits
		if wr != nil {
			xmlInserted += wr.xmlBytes
		}
		if len(readers) > 0 {
			byQuery := make([]latencies, len(queries))
			for _, r := range readers {
				for qi, l := range r.lat {
					byQuery[qi] = append(byQuery[qi], l...)
				}
			}
			rs := summarize(byQuery, elapsed)
			readRounds = append(readRounds, rs)
			fmt.Fprintf(log, "round %d queries: p50 %.1fus tail %.1fus %.0f/s\n", round, rs.p50, rs.tail, rs.perSec)
		}
		if wr != nil {
			rs := summarize([]latencies{wr.lat}, elapsed)
			writeRounds = append(writeRounds, rs)
			fmt.Fprintf(log, "round %d commits: p50 %.2fms tail %.2fms %.1f/s\n", round, rs.p50/1e3, rs.tail/1e3, rs.perSec)
		}
	}

	observed := map[string]float64{}
	if wr != nil {
		lost, err := c.checkDurability(db, built.path, dir, wr)
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		t.add(int64(len(wr.liveIDs())))
		for i := 0; i < lost; i++ {
			t.fail("acknowledged commit lost or deleted node present after recovery")
		}
		if xmlInserted > 0 {
			observed["write_amp"] = float64(devWritten) / float64(xmlInserted)
		}
		observed["checkpoints_timed"] = float64(checkpoints)
	}
	// A no-op for the in-memory database.
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	reads, writes := overRounds(readRounds), overRounds(writeRounds)
	primary := reads
	if wr != nil {
		primary = writes
	}
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setupSecs))
	m.set("op_p50_us", primary.p50)
	m.set("op_tail_us", primary.tail)
	m.set("ops_per_s", primary.perSec)
	m.set("heap_mb", heapMB)
	m.set("space_amp", float64(built.dbBytes)/float64(built.in.xmlBytes))

	observed["op_samples_per_round"] = primary.samples
	if len(readRounds) > 0 {
		observed["query_p50_us"], observed["query_tail_us"], observed["query_qps"] = reads.p50, reads.tail, reads.perSec
		if queriesRun > 0 {
			observed["plan_cache_hit_rate"] = float64(cacheHits) / float64(queriesRun)
			observed["device_reads_per_query"] = float64(devReads) / float64(queriesRun)
		}
	}
	if len(writeRounds) > 0 {
		observed["commit_p50_ms"], observed["commit_tail_ms"], observed["commit_per_s"] = writes.p50/1e3, writes.tail/1e3, writes.perSec
	}
	if len(reopenMS) > 0 {
		observed["reopen_ms"] = median(reopenMS)
	}
	if t.firstErr != "" {
		fmt.Fprintf(log, "first failure: %s\n", t.firstErr)
	}
	return &runResult{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: m.result(), Observed: observed,
	}, nil
}

// checkDurability copies the database file and its WAL as they are —
// without Close, so nothing is flushed that a crash would not have — opens
// the copy, and counts the acknowledged nodes missing from it plus the
// deleted ones still present. The background checkpointer rewrites the
// file while it drains the WAL, so the copy waits until it is idle: a copy
// torn across a checkpoint would be a state no crash produces.
func (c *runConfig) checkDurability(db *twigdb.DB, path, dir string, wr *writer) (lost int, err error) {
	for {
		a := db.StorageStats()
		time.Sleep(20 * time.Millisecond)
		b := db.StorageStats()
		if a.BytesWritten == b.BytesWritten && a.Checkpoints == b.Checkpoints {
			break
		}
	}
	copyPath := filepath.Join(dir, "crash-copy.twigdb")
	for _, suffix := range []string{"", ".wal"} {
		if err := copyFile(path+suffix, copyPath+suffix); err != nil {
			return 0, err
		}
	}
	recovered, err := twigdb.Open(c.options(copyPath))
	if err != nil {
		return 0, fmt.Errorf("open the copy: %w", err)
	}
	defer recovered.Close()
	res, err := recovered.Query(wr.liveQuery())
	if err != nil {
		return 0, err
	}
	want := wr.liveIDs()
	for _, id := range res.IDs {
		if want[id] {
			delete(want, id)
		} else {
			lost++ // present, but deleted (or never acknowledged)
		}
	}
	return lost + len(want), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
