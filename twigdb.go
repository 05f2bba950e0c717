// Package twigdb is a library for indexing XML documents and matching XML
// twig (branching path) queries with value conditions using relational
// access methods — a reproduction of Chen, Gehrke, Korn, Koudas,
// Shanmugasundaram, Srivastava: "Index Structures for Matching XML Twigs
// Using Relational Query Processors" (ICDE 2005).
//
// The library implements the paper's whole index family over one paged,
// buffer-pool-backed B+-tree substrate: the two proposed indices ROOTPATHS
// and DATAPATHS (which answer any parent-child subpath pattern — including
// ones starting with // — in a single index lookup and return the full list
// of node ids along each matching path), and the baselines it compares
// against (edge-table link indices, DataGuide, a B+-tree-simulated Index
// Fabric, Access Support Relations and Join Indices).
//
// # Quick start
//
//	db, _ := twigdb.Open(nil)
//	if err := db.LoadXMLString(`<book><title>XML</title></book>`); err != nil { ... }
//	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil { ... }
//	res, err := db.Query(`/book[title='XML']`)
//	fmt.Println(res.IDs) // ids of matching book elements
//
// # Persistence
//
// With Options.Path the database lives in a single paged file guarded by a
// write-ahead log: Build/Insert/Delete commit durably, Close runs a sync point,
// and the next Open recovers everything — indices included — without
// rebuilding:
//
//	db, err := twigdb.Open(&twigdb.Options{Path: "catalog.twigdb"})
//	...
//	defer db.Close()
//
// Every query can be executed under any strategy via QueryWith, and Result
// carries the work counters (index lookups, rows scanned, join tuples,
// index-nested-loop probes) that the repository's benchmarks use to
// regenerate the paper's tables and figures.
package twigdb

import (
	"errors"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// IndexKind selects a member of the index family to build.
type IndexKind int

const (
	// RootPaths is the paper's ROOTPATHS index: B+-tree on
	// LeafValue · reverse(SchemaPath) over root-to-node path prefixes,
	// returning full IdLists (Section 3.2).
	RootPaths IndexKind = iota
	// DataPaths is the paper's DATAPATHS index: B+-tree on
	// HeadId · LeafValue · reverse(SchemaPath) over all subpaths,
	// supporting bound (index-nested-loop) probes (Section 3.3).
	DataPaths
	// Edge is the edge table with Lore-style value and forward-link
	// indices; the node table serves as its backward-link index.
	Edge
	// DataGuide is the structure-only path summary with extents.
	DataGuide
	// IndexFabric is the B+-tree simulation of the Index Fabric.
	IndexFabric
	// ASR builds one Access Support Relation per distinct schema path.
	ASR
	// JoinIndex builds forward and backward join indices per distinct
	// schema path.
	JoinIndex
	// XRel normalises rooted paths into a path table and stores path ids
	// with the data (the XRel baseline of Section 5.2.6).
	XRel
	// Containment is the region-encoded element-list index used by the
	// structural-join extension strategy.
	Containment
)

// String returns the paper's name for the index.
func (k IndexKind) String() string {
	// IndexKind mirrors index.Kind value for value
	// (TestPublicEnumsMirrorInternal).
	return index.Kind(k).String()
}

// Strategy selects the evaluation strategy for a query.
type Strategy int

const (
	// Auto picks the best strategy among the built indices.
	Auto Strategy = iota
	// StrategyRootPaths evaluates every branch with one ROOTPATHS lookup.
	StrategyRootPaths
	// StrategyDataPaths uses DATAPATHS free and bound lookups.
	StrategyDataPaths
	// StrategyEdge joins through the edge link indices step by step.
	StrategyEdge
	// StrategyDataGuideEdge combines DataGuide extents with the value
	// index.
	StrategyDataGuideEdge
	// StrategyFabricEdge combines Index Fabric lookups with backward-link
	// joins through the node table.
	StrategyFabricEdge
	// StrategyASR probes one Access Support Relation per concrete path.
	StrategyASR
	// StrategyJoinIndex composes per-path join indices.
	StrategyJoinIndex
	// StrategyXRel resolves paths through the XRel path table (one lookup
	// per matching path id) plus edge climbs.
	StrategyXRel
	// StrategyStructuralJoin evaluates twigs with region-encoded binary
	// structural semi-joins (requires the Containment and Edge indices).
	StrategyStructuralJoin
	// Oracle evaluates with the naive in-memory matcher (no indices);
	// intended for testing and validation.
	Oracle
)

// internal converts a pinned strategy to the planner's: the pinned values
// mirror plan.Strategy shifted by one, Auto taking the zero value
// (TestPublicEnumsMirrorInternal). Auto, Oracle and out-of-range values
// land outside plan's range, where plan reports an unknown strategy.
func (s Strategy) internal() plan.Strategy { return plan.Strategy(s - 1) }

// String names the strategy as the paper's figures do.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "Auto"
	case Oracle:
		return "Oracle"
	default:
		return s.internal().String()
	}
}

// Options configures a database instance.
type Options struct {
	// BufferPoolBytes sizes the buffer pool shared by all indices.
	// Defaults to 40MB, the paper's setting.
	BufferPoolBytes int64

	// CompressSchemaPaths enables the lossy SchemaPathId compression of
	// Section 4.2 on ROOTPATHS/DATAPATHS: smaller indices, but queries
	// containing // fail.
	CompressSchemaPaths bool

	// RawIDLists disables the differential IdList encoding of Section
	// 4.1 (mainly useful to measure its benefit).
	RawIDLists bool

	// Path, when non-empty, backs the database with a durable paged file
	// at this path plus a write-ahead log at Path+".wal": documents and
	// indices survive Close and are recovered on the next Open with zero
	// rebuild work, and a crash loses at most the work since the last
	// commit boundary (Build, Insert, Delete, Checkpoint or Close). Empty
	// — the default — puts the same file and log in memory: the database
	// runs the same paged, checksummed storage, and nothing outlives the
	// process. See docs/STORAGE.md for the file format and durability
	// guarantees.
	Path string

	// FaultInjection, when non-nil, attaches a deterministic fault
	// injector to the database file for robustness tests: injected
	// read/write/fsync errors, bit flips, torn writes, ENOSPC and
	// latency (the one way to slow the device down), seeded for
	// replayability. Faults land below the page checksums, in memory as on
	// disk. See docs/FAULTS.md and the FaultInjection type.
	FaultInjection *FaultInjection

	// SlowQueryThreshold, when > 0, enables per-operator tracing on every
	// query (the cached-plan hot path stays allocation-free; see
	// docs/OBSERVABILITY.md) and captures queries at least this slow —
	// query text, strategy, snapshot version and the traced plan — in a
	// bounded ring readable via SlowQueries. Zero, the default, disables
	// both. Per-query tracing on demand is always available through
	// ExplainAnalyze regardless of this setting.
	SlowQueryThreshold time.Duration

	// CheckpointWALBytes bounds the write-ahead log. A commit logs only its
	// statements; its pages stay in the buffer pool until a sync point
	// writes every dirty page and the catalog to their own slots in the
	// database file, seals them under a new superblock, trims any all-free
	// file tail and empties the log. A sync point comes every 1,024
	// commits, at Build, Checkpoint, Close and Backup, at the commit that
	// finds the log longer than CheckpointWALBytes, and at the commit that
	// finds too many freed pages held back from reuse until the next one
	// (more than a quarter of the sealed page count plus 2 MB). The sync
	// point runs in the committing writer. 0 keeps the 64MB default.
	// Without Path the log is in memory, so this also bounds the memory it
	// holds beside the database.
	CheckpointWALBytes int64

	// TxRetries caps how many times DB.Update re-runs its closure after an
	// ErrConflict before giving up and returning the error. 0 keeps the
	// default of 8; negative retries without bound. Explicit Tx.Commit
	// calls never retry regardless of this setting.
	TxRetries int

	// RetainSnapshots keeps that many superseded database versions
	// queryable after publication, giving QueryAsOf a time-travel window
	// of the last RetainSnapshots commits (by sequence number, see
	// CurrentSeq). Each retained version holds the deferred page
	// reclamation of every later commit — the window trades space for
	// history depth. 0, the default, disables retention: only the current
	// version is queryable.
	RetainSnapshots int
}

// DB is an XML database instance: a forest of loaded documents plus any
// subset of the index family.
//
// A DB is safe for concurrent use, and reads never block on writes: any
// number of goroutines may query it (Query, QueryWith) while others call
// Insert, Delete, or Build. Each query runs on the goroutine that issued
// it; to run queries concurrently, issue them from several goroutines.
// Every query pins an immutable snapshot of the database — store,
// statistics and indices at one version — for its whole lifetime, so it
// observes either all of a concurrent update or none of it, and never
// waits for a writer. Writers serialise among themselves, prepare the next
// version copy-on-write, and publish it atomically; on file-backed
// databases their commits share WAL fsyncs (group commit). See
// docs/CONCURRENCY.md for the exact guarantees.
type DB struct {
	eng *engine.DB
	// txRetries is Options.TxRetries resolved (0 → default) for DB.Update.
	txRetries int
	parsed    parseMemo
}

// parseMemoSize bounds the query texts a DB remembers the parse of. An
// application's distinct query texts are few and repeat; the memo is
// emptied when full rather than tracking recency, so a stream of unique
// texts costs one map insert per query and never grows the heap.
const parseMemoSize = 256

// parseMemo maps query text to its parsed pattern, so a repeated text
// skips xpath.Parse and the canonical rendering Parse computes for the
// plan-cache key. Patterns are immutable after Parse, which is what lets
// concurrent queries share one; parse errors are not remembered.
type parseMemo struct {
	mu sync.RWMutex
	m  map[string]*xpath.Pattern
}

func (c *parseMemo) parse(q string) (*xpath.Pattern, error) {
	c.mu.RLock()
	pat := c.m[q]
	c.mu.RUnlock()
	if pat != nil {
		return pat, nil
	}
	pat, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= parseMemoSize {
		c.m = make(map[string]*xpath.Pattern, parseMemoSize)
	}
	c.m[q] = pat
	c.mu.Unlock()
	return pat, nil
}

// Open creates a database. A nil opts uses the defaults (in-memory, 40MB
// buffer pool). With Options.Path set, Open opens or creates the database
// file, replays the committed write-ahead-log prefix — the last sync point's
// pages, then the commits logged after it — discarding any torn tail a
// crash left behind, and restores every persisted index so queries run
// immediately without rebuilding. A file written in another format version
// is refused with ErrFormatVersion, one another open DB holds with
// ErrLocked.
func Open(opts *Options) (*DB, error) {
	cfg := engine.DefaultConfig()
	txRetries := defaultTxRetries
	if opts != nil {
		switch {
		case opts.TxRetries > 0:
			txRetries = opts.TxRetries
		case opts.TxRetries < 0:
			txRetries = -1
		}
		cfg.RetainSnapshots = opts.RetainSnapshots
		if opts.BufferPoolBytes > 0 {
			cfg.BufferPoolBytes = opts.BufferPoolBytes
		}
		cfg.PathsOptions = index.PathsOptions{
			RawIDs:     opts.RawIDLists,
			PathIDKeys: opts.CompressSchemaPaths,
		}
		cfg.Path = opts.Path
		cfg.SlowQueryThreshold = opts.SlowQueryThreshold
		cfg.CheckpointWALBytes = opts.CheckpointWALBytes
		if opts.FaultInjection != nil {
			inj, err := newFaultInjector(opts.FaultInjection)
			if err != nil {
				return nil, err
			}
			cfg.Faults = inj
		}
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, txRetries: txRetries}, nil
}

// ErrFormatVersion is returned by Open for a database file written in a
// storage or catalog format version this build does not read; the file is
// left untouched. Upgrading is a reload: open the file with the build that
// wrote it, write each document out with WriteXML, and LoadXML it into a
// new database. Node ids are renumbered by the reload.
var ErrFormatVersion = storage.ErrFormatVersion

// ErrLocked is returned by Open, and by Backup for its destination, for a
// database file that another open DB — in this process or another — holds:
// a file has one owner at a time, and Close (or the owner's exit) releases
// it.
var ErrLocked = storage.ErrLocked

// defaultTxRetries is the Options.TxRetries default for DB.Update.
const defaultTxRetries = 8

// MustOpen is Open for programs and tests where an open failure is fatal
// (an in-memory database cannot fail to open).
func MustOpen(opts *Options) *DB {
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// Close runs a final sync point and closes the database — for an
// in-memory one, releasing its memory; the DB must not be used afterwards. A second
// Close reports fs.ErrClosed, so `defer db.Close()` after an explicit
// Close is harmless.
func (db *DB) Close() error { return db.eng.Close() }

// Checkpoint runs a sync point: every page of the current state goes to
// the database file under a new superblock, the file's all-free tail is
// trimmed, and the write-ahead log is emptied (the next Open replays
// nothing). Mutations already commit at their own boundaries, and sync
// points come on their own (see Options.CheckpointWALBytes); Checkpoint
// runs one at a moment the application chooses. With nothing changed
// since the last sync point it writes nothing.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Backup writes a transactionally consistent copy of the database to
// dstPath while the database stays fully live: queries keep reading and
// writers keep committing during the copy. The backup pins one snapshot,
// copies every page that snapshot reaches through the checksum-verified
// read path, and seals the result as a standalone database file (no WAL)
// that Open restores like any cleanly closed database. A destination that
// an open database holds — this one's own file included — is refused with
// ErrLocked and left untouched. An in-memory database backs up the same
// way, so Backup is how one is saved to a file.
func (db *DB) Backup(dstPath string) error { return db.eng.Backup(dstPath) }

// ErrLoadAfterBuild is returned by LoadXML and LoadXMLString once any
// index is built: bulk loading does not maintain indices, so they would
// silently miss the new document. Add a document to an indexed database
// with Insert(0, …), which maintains ROOTPATHS and DATAPATHS.
var ErrLoadAfterBuild = engine.ErrLoadAfterBuild

// LoadXML parses one XML document from r and adds it to the database.
// Load all documents before building indices; afterwards LoadXML returns
// ErrLoadAfterBuild.
func (db *DB) LoadXML(r io.Reader) error { return db.eng.LoadXML(r) }

// LoadXMLString parses one XML document from a string.
func (db *DB) LoadXMLString(s string) error { return db.eng.LoadXML(strings.NewReader(s)) }

// Build constructs the given index structures (rebuilding any that
// exist). It uses up to GOMAXPROCS goroutines; the file is byte-identical
// to a serial build.
func (db *DB) Build(kinds ...IndexKind) error {
	internal := make([]index.Kind, len(kinds))
	for i, k := range kinds {
		internal[i] = index.Kind(k) // an out-of-range kind fails in index.BuildKinds
	}
	return db.eng.Build(internal...)
}

// BuildAll constructs the entire index family. It uses up to GOMAXPROCS
// goroutines; the file is byte-identical to a serial build.
func (db *DB) BuildAll() error { return db.eng.BuildAll() }

// Query evaluates an XPath twig query under the cheapest available
// strategy: the cost-based planner builds a candidate plan per built index
// family member, costs each against the collected statistics, and executes
// the cheapest (choices are cached per pattern until the next load, build
// or update). Result.Strategy reports what was chosen and Result.Plan the
// executed operator tree with estimated vs. actual cardinalities.
//
// The supported query language is the paper's twig patterns: / and // axes,
// element and @attribute name tests, and predicates of the forms [p],
// [p = 'value'], [. = 'value'] and [p1 and p2], where p is a relative path.
func (db *DB) Query(q string) (*Result, error) { return db.QueryWith(Auto, q) }

// QueryWith evaluates a query under an explicit strategy — the pin that
// bypasses the cost-based planner (Auto re-enables it).
func (db *DB) QueryWith(strat Strategy, q string) (*Result, error) {
	return db.query(db.eng.Read, strat, q, false)
}

// reader is one of the engine's three snapshot sources: the current
// version (engine.DB.Read), a retained one (ReadAsOf) or a transaction's
// view (engine.Tx.Read).
type reader func(*xpath.Pattern, engine.ReadOpts) (engine.ReadResult, error)

// query is the package's one query path: parse, translate the public
// strategy into the engine's read options, read, assemble the Result.
func (db *DB) query(read reader, strat Strategy, q string, trace bool) (*Result, error) {
	pat, err := db.parsed.parse(q)
	if err != nil {
		return nil, err
	}
	opts := engine.ReadOpts{Trace: trace}
	switch strat {
	case Auto:
		opts.Planner = engine.Auto
	case Oracle:
		opts.Planner = engine.Oracle
	default:
		opts.Strategy = strat.internal()
	}
	r, err := read(pat, opts)
	if err != nil {
		return nil, err
	}
	return db.newResult(q, strat, r), nil
}

// newResult assembles the public Result from an internal execution:
// strategy resolution for Auto, counter mirroring and the executed plan
// view, per-operator timings included when the run was traced.
func (db *DB) newResult(q string, strat Strategy, r engine.ReadResult) *Result {
	res := &Result{Query: q, Strategy: strat, IDs: r.IDs, SnapshotSeq: r.Seq, db: db}
	if strat == Auto {
		res.Strategy = Strategy(r.Strategy + 1)
	}
	if es := r.Stats; es != nil {
		res.Stats = ExecStats{
			IndexLookups:   es.IndexLookups,
			RowsScanned:    es.RowsScanned,
			INLProbes:      es.INLProbes,
			UsedINL:        es.UsedINL,
			RelationsUsed:  es.RelationsUsed,
			JoinTuplesIn:   es.Join.TuplesIn,
			JoinTuplesOut:  es.Join.TuplesOut,
			BranchesJoined: es.BranchesJoined,
		}
		res.Plan = publicPlan(es.Plan)
	}
	return res
}

// ExplainAnalyze executes the query with per-operator tracing forced on —
// EXPLAIN ANALYZE. The returned Result is a full query result (IDs, Stats,
// Plan) whose Plan additionally carries, per operator, inclusive and self
// wall time and the buffer-pool-miss device reads attributed to it (see
// PlanNode). Render it with Result.Plan.Render. Tracing one run costs two
// clock reads per operator; it does not require
// Options.SlowQueryThreshold. Oracle is not supported (it runs no plan).
func (db *DB) ExplainAnalyze(strat Strategy, q string) (*Result, error) {
	if strat == Oracle {
		return nil, errors.New("twigdb: ExplainAnalyze needs a plan-running strategy; Oracle has no plan")
	}
	return db.query(db.eng.Read, strat, q, true)
}

// QueryStats is a snapshot of the database's lifetime query counters
// (maintained with atomics, so reading them is safe and cheap at any
// moment, including mid-traffic). Device I/O is counted in StorageStats,
// transactions in TxStats.
type QueryStats struct {
	Queries           int64 // indexed queries executed (Oracle not counted)
	BranchesEvaluated int64 // covering branches evaluated across all queries
	PlanCacheHits     int64 // auto-planned queries whose strategy came from the plan cache

	// SnapshotsPinned counts reader-side snapshot pins: every query pins
	// the current engine snapshot (an immutable version of the store,
	// statistics and indices) for its whole lifetime instead of taking a
	// database lock, so reads never block on writes. One pin per query.
	SnapshotsPinned int64
}

// QueryStats returns the lifetime query counters.
func (db *DB) QueryStats() QueryStats {
	s := db.eng.QueryCounters()
	return QueryStats{
		Queries:           s.Queries,
		BranchesEvaluated: s.BranchesEvaluated,
		PlanCacheHits:     s.PlanCacheHits,
		SnapshotsPinned:   s.SnapshotsPinned,
	}
}

// StorageStats reports the full device I/O counters: page reads/writes,
// bytes moved, WAL appends/fsyncs, current WAL length and sync points,
// plus the integrity counters of the fault-hardened storage layer
// (checksum failures/retries, injected faults, recovery results and the
// poisoned flag — see docs/FAULTS.md).
type StorageStats struct {
	Reads              int64
	Writes             int64
	BytesRead          int64
	BytesWritten       int64 // WAL records + page slots + free-list trunks
	WALAppends         int64
	WALFsyncs          int64 // one per durable batch, not per commit
	WALBytes           int64
	CommitsSinceSync   int64 // commits logged past the last sync point: what a crash now would replay at Open
	GroupCommitBatches int64 // coalesced fsync batches: concurrent commits share one fsync
	Checkpoints        int64 // sync points run (Checkpoint, Close, Build and the commits that are sync points)

	PagesFreed     int64 // pages returned to the on-disk free list
	PagesReused    int64 // allocations served from the free list instead of growing the file
	FileBytes      int64 // current database file size in bytes (0 once closed)
	FreeListResets int64 // recoveries that found an invalid free list and emptied it

	ChecksumFailures  int64 // page checksum verifications that failed
	ChecksumRetries   int64 // transparent re-reads that recovered a failure
	InjectedFaults    int64 // faults fired by the configured injector
	RecoveredCommits  int64 // logged commits the last open replayed from the WAL
	WALBytesDiscarded int64 // torn/corrupt WAL tail bytes discarded at the last open
	Poisoned          bool  // a failed fsync poisoned the device (always true when Health.ReadOnly is)
}

// StorageStats returns the device I/O counters.
func (db *DB) StorageStats() StorageStats {
	d := db.eng.DeviceStats()
	return StorageStats{
		Reads:              d.Reads,
		Writes:             d.Writes,
		BytesRead:          d.BytesRead,
		BytesWritten:       d.BytesWritten,
		WALAppends:         d.WALAppends,
		WALFsyncs:          d.WALFsyncs,
		WALBytes:           d.WALBytes,
		CommitsSinceSync:   d.CommitsSinceSync,
		GroupCommitBatches: d.GroupCommitBatches,
		Checkpoints:        d.Checkpoints,
		PagesFreed:         d.PagesFreed,
		PagesReused:        d.PagesReused,
		FileBytes:          d.FileBytes,
		FreeListResets:     d.FreeListResets,
		ChecksumFailures:   d.ChecksumFailures,
		ChecksumRetries:    d.ChecksumRetries,
		InjectedFaults:     d.InjectedFaults,
		RecoveredCommits:   d.RecoveredCommits,
		WALBytesDiscarded:  d.WALBytesDiscarded,
		Poisoned:           d.Poisoned,
	}
}

// ExecStats reports the work a query performed — the machine-independent
// counters behind the repository's reproduction of the paper's timings.
type ExecStats struct {
	IndexLookups   int64 // index probes (range scans started)
	RowsScanned    int64 // index rows visited
	INLProbes      int64 // bound probes by index-nested-loop joins
	UsedINL        bool  // whether any join ran as index-nested-loop
	RelationsUsed  int   // distinct ASR/JI relations touched
	JoinTuplesIn   int64
	JoinTuplesOut  int64
	BranchesJoined int
}

// Explain returns the physical plan QueryWith would run: the operator tree
// (scans, hash/index-nested-loop joins, filters, projection, dedup) with
// the planner's exact cardinality estimate per operator. With Auto it also
// reports the cost-based planner's deliberation — every candidate strategy
// with its estimated plan cost and which one would be chosen. For the plan
// a query *did* run, with actual per-operator cardinalities, see
// Result.Plan.
func (db *DB) Explain(strat Strategy, q string) (string, error) {
	pat, err := xpath.Parse(q)
	if err != nil {
		return "", err
	}
	if strat == Oracle {
		return "naive in-memory twig matching (no indices)\n", nil
	}
	if strat == Auto {
		out, _, err := db.eng.ExplainBest(pat)
		return out, err
	}
	return db.eng.Explain(pat, strat.internal())
}

// Insert parses xmlFragment as a standalone element and attaches it as the
// last child of the node with id parentID; parentID 0 adds it as a new
// document, the way to load into an indexed database. The ROOTPATHS and
// DATAPATHS indices are maintained incrementally (the paper's Section 7
// update scheme: one entry per root-path prefix of each new node); the
// other index structures cannot be maintained incrementally and are
// dropped — rebuild them with Build if needed. Returns the id of the new
// subtree's root.
func (db *DB) Insert(parentID int64, xmlFragment string) (int64, error) {
	doc, err := xmldb.ParseString(xmlFragment)
	if err != nil {
		return 0, err
	}
	if err := db.eng.InsertSubtree(parentID, doc.Root); err != nil {
		return 0, err
	}
	return doc.Root.ID, nil
}

// Delete removes the node with the given id and its whole subtree,
// maintaining ROOTPATHS/DATAPATHS incrementally and dropping the other
// index structures (as with Insert).
func (db *DB) Delete(nodeID int64) error {
	return db.eng.DeleteSubtree(nodeID)
}

// IndexSpace describes the footprint of one built index structure.
type IndexSpace struct {
	Kind    IndexKind
	Name    string
	Bytes   int64
	Pages   int64
	Entries int64
	Trees   int // B+-trees / relations materialised
}

// IndexSpaces reports the footprint of every built index (the data behind
// the paper's Figure 9).
func (db *DB) IndexSpaces() []IndexSpace {
	var out []IndexSpace
	for _, s := range db.eng.Spaces() {
		out = append(out, IndexSpace{
			Kind: IndexKind(s.Kind), Name: s.Name, Bytes: s.Bytes, Pages: s.Pages,
			Entries: s.Entries, Trees: s.Trees,
		})
	}
	return out
}

// NodeCount returns the number of element and attribute nodes loaded.
func (db *DB) NodeCount() int { return db.eng.NodeCount() }
