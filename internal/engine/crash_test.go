package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/naive"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Crash-recovery torture: drive a file-backed engine through a random
// sequence of loads, builds, inserts, deletes and checkpoints; take a
// "crash image" (copy of the database file plus the WAL truncated at an
// arbitrary byte offset — the write-then-truncate kill-point injection);
// reopen the image and verify, with the in-memory differential oracle,
// that recovery landed exactly on the last logged commit that fully
// survived the truncation, over the last sync point's state.

// torOp is one replayable mutation. Documents/subtrees are prototypes,
// cloned before every use, so a sequence replays identically (same node
// ids, same index rows) into any fresh engine.
type torOp struct {
	kind     string // "load", "build", "insert", "delete", "ckpt"
	doc      *xmldb.Document
	parentID int64
	nodeID   int64
}

// applyOp replays one op; errors are fatal (ops are constructed valid).
func applyOp(t *testing.T, db *DB, op torOp) {
	t.Helper()
	var err error
	switch op.kind {
	case "load":
		db.AddDocument(cloneDoc(op.doc))
	case "build":
		err = db.Build(allKinds...)
	case "insert":
		err = db.InsertSubtree(op.parentID, cloneDoc(op.doc).Root)
	case "delete":
		err = db.DeleteSubtree(op.nodeID)
	case "ckpt":
		err = db.Checkpoint()
	}
	if err != nil {
		t.Fatalf("op %s: %v", op.kind, err)
	}
}

// liveNodeIDs collects the ids of nodes eligible as insert parents
// (any node) and delete victims (non-root), deterministically.
func liveNodeIDs(db *DB) (parents, victims []int64) {
	db.Store().Walk(func(n *xmldb.Node) bool {
		parents = append(parents, n.ID)
		if n.ParentID != 0 {
			victims = append(victims, n.ID)
		}
		return true
	})
	return parents, victims
}

// verifyRecovered cross-checks a recovered database against an oracle
// engine holding the expected state: store walks must match, and every
// strategy (run concurrently, for the race detector) must agree with the
// naive matcher on the oracle's store.
func verifyRecovered(t *testing.T, tag string, rec, oracle *DB, queries []string) {
	t.Helper()
	dumpStore := func(db *DB) string {
		out := ""
		for _, d := range db.Store().Docs {
			out += xmldb.Dump(d.Root)
		}
		return out
	}
	if got, want := dumpStore(rec), dumpStore(oracle); got != want {
		t.Fatalf("%s: recovered store diverges\ngot:\n%s\nwant:\n%s", tag, got, want)
	}
	if got, want := rec.Store().NextID(), oracle.Store().NextID(); got != want {
		t.Fatalf("%s: nextID %d, want %d", tag, got, want)
	}
	for _, q := range queries {
		pat, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("%s: query %q: %v", tag, q, err)
		}
		want := naive.Match(oracle.Store(), pat)
		if got := rec.MatchNaive(pat); !equalIDs(got, want) {
			t.Fatalf("%s: naive on recovered store for %q: got %v want %v", tag, q, got, want)
		}
		var wg sync.WaitGroup
		errs := make([]string, len(diffStrategies))
		for i, s := range diffStrategies {
			wg.Add(1)
			go func(i int, s int) {
				defer wg.Done()
				strat := diffStrategies[i]
				gotIDs, gotErr := pinnedIDs(rec, pat, strat)
				_, oraErr := pinnedIDs(oracle, pat, strat)
				if (gotErr == nil) != (oraErr == nil) {
					errs[i] = fmt.Sprintf("%q via %v: recovered err %v, oracle err %v", q, strat, gotErr, oraErr)
					return
				}
				if gotErr == nil && !equalIDs(gotIDs, want) {
					errs[i] = fmt.Sprintf("%q via %v: got %v want %v", q, strat, gotIDs, want)
				}
			}(i, int(s))
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatalf("%s: %s", tag, e)
			}
		}
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	seeds := 6
	crashesPerSeed := 4
	if testing.Short() {
		seeds, crashesPerSeed = 2, 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			path := filepath.Join(dir, "twig.db")
			// A tiny pool forces evictions mid-build and between sync
			// points, writing pages home that no superblock reaches yet.
			cfg := Config{Path: path, BufferPoolBytes: 128 << 10}

			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fdisk := db.fdisk

			var ops []torOp
			do := func(op torOp) {
				applyOp(t, db, op)
				ops = append(ops, op)
			}
			// Committed-state marks: after op index opIdx, the durable WAL
			// prefix ends at end. A sync point empties the WAL (a build's
			// mark ends at 0); baseline is the op prefix a checkpoint
			// sealed into the database file.
			type mark struct {
				end   int64
				opIdx int
			}
			var marks []mark
			baseline := -1 // ops[0..baseline] are in the db file
			noteCommit := func() {
				marks = append(marks, mark{end: fdisk.WALSize(), opIdx: len(ops) - 1})
			}

			// The load is not a commit boundary (documents become durable at
			// the next Build/Insert/Delete/Checkpoint), so the first mark
			// lands after the build.
			do(torOp{kind: "load", doc: genDoc(rng, 40)})
			do(torOp{kind: "build"})
			noteCommit()

			steps := 10
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(10); {
				case r < 4: // insert
					parents, _ := liveNodeIDs(db)
					p := parents[rng.Intn(len(parents))]
					do(torOp{kind: "insert", parentID: p, doc: genDoc(rng, 8)})
					noteCommit()
				case r < 6: // delete
					_, victims := liveNodeIDs(db)
					if len(victims) == 0 {
						continue
					}
					do(torOp{kind: "delete", nodeID: victims[rng.Intn(len(victims))]})
					noteCommit()
				case r < 8: // rebuild everything
					do(torOp{kind: "build"})
					noteCommit()
				default: // checkpoint
					do(torOp{kind: "ckpt"})
					baseline = len(ops) - 1
					marks = nil
				}
			}

			// Take crash images at random WAL truncation points.
			walSize := fdisk.WALSize()
			dbImage, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			walImage, err := os.ReadFile(path + storage.WALSuffix)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(walImage)) != walSize {
				t.Fatalf("wal image %d bytes, device reports %d", len(walImage), walSize)
			}
			fdisk.Close() // abandon without commit: the images are the crash state

			for c := 0; c < crashesPerSeed; c++ {
				off := int64(rng.Intn(int(walSize) + 1))
				// Expected surviving prefix: the last commit mark at or
				// before the truncation point, else the checkpoint baseline
				// (-1, an empty database, when neither exists).
				expIdx := baseline
				for _, m := range marks {
					if m.end <= off {
						expIdx = m.opIdx
					}
				}

				crashPath := filepath.Join(dir, fmt.Sprintf("crash%d.db", c))
				if err := os.WriteFile(crashPath, dbImage, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(crashPath+storage.WALSuffix, walImage[:off], 0o644); err != nil {
					t.Fatal(err)
				}

				rec, err := Open(Config{Path: crashPath, BufferPoolBytes: 1 << 20})
				if err != nil {
					t.Fatalf("crash %d (off %d/%d): reopen: %v", c, off, walSize, err)
				}
				oracle := New(Config{BufferPoolBytes: 4 << 20})
				for i := 0; i <= expIdx; i++ {
					applyOp(t, oracle, ops[i])
				}
				queries := make([]string, 4)
				for i := range queries {
					if len(oracle.Store().Docs) > 0 {
						queries[i] = genQueryFor(rng, oracle.Store().Docs[0])
					} else {
						queries[i] = genQuery(rng)
					}
				}
				tag := fmt.Sprintf("seed %d crash %d (wal %d/%d, ops 0..%d)", seed, c, off, walSize, expIdx)
				verifyRecovered(t, tag, rec, oracle, queries)
				assertPagesAccounted(t, rec)

				// The recovered database must also keep working: one more
				// committed mutation and re-verification.
				parents, _ := liveNodeIDs(rec)
				if len(parents) > 0 {
					extra := torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 6)}
					applyOp(t, rec, extra)
					applyOp(t, oracle, extra)
					verifyRecovered(t, tag+" +insert", rec, oracle, queries[:2])
				}
				if err := rec.Close(); err != nil {
					t.Fatalf("%s: close: %v", tag, err)
				}
			}
		})
	}
}

// crashImage is the pair of files a crash would leave, taken while the op
// at index lo (ops[:lo] acknowledged) was running.
type crashImage struct {
	db, wal []byte
	lo      int
}

// crashSweep drives a database over two storage.CrashFiles and crashes it
// at every change to either file — each page, record, trunk and superblock
// write, each fsync and truncation — of the ops it captures, with the
// writes since the last fsync of each file dropped or torn at 512-byte
// sectors at random. After each such op it recovers every image and checks
// it against the op sequence: the documents equal those after ops[:lo] or
// ops[:lo+1] (a commit boundary), every strategy agrees with the naive
// matcher, and every page is reachable, in the catalog chain or free.
type crashSweep struct {
	t        *testing.T
	seed     int64
	db       *DB
	files    [2]*storage.CrashFile
	ops      []torOp
	dumps    []string // dumps[k]: the documents after ops[:k]
	images   []crashImage
	queries  []string
	oracle   *DB // the documents after ops[:oracleAt]
	extended *DB // oracle plus extraOp(oracleAt)
	oracleAt int
	crashes  int
}

func newCrashSweep(t *testing.T, seed int64, cfg Config) *crashSweep {
	s := &crashSweep{t: t, seed: seed, dumps: []string{""}, oracleAt: -1}
	s.files = [2]*storage.CrashFile{storage.NewCrashFile(nil), storage.NewCrashFile(nil)}
	fd, err := storage.OpenFiles(s.files[0], s.files[1])
	if err == nil {
		s.db, err = openOn(cfg, fd)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do applies op, capturing a crash image at every file change it makes
// when capture is set, and then checks the images.
func (s *crashSweep) do(op torOp, capture bool) {
	lo := len(s.ops)
	if capture {
		snap := func() {
			seed := s.seed<<32 | int64(s.crashes)
			s.crashes++
			s.images = append(s.images, crashImage{s.files[0].Crash(seed), s.files[1].Crash(^seed), lo})
		}
		s.files[0].OnChange, s.files[1].OnChange = snap, snap
	}
	applyOp(s.t, s.db, op)
	s.files[0].OnChange, s.files[1].OnChange = nil, nil
	s.ops = append(s.ops, op)
	s.dumps = append(s.dumps, dumpDocs(s.db.Store()))
	for _, img := range s.images {
		s.recover(img)
	}
	s.images = s.images[:0]
}

// recover opens one crash image and checks it. The recovered database
// must also keep working: it takes one more insert — allocating from the
// free list recovery loaded, beside the trunks it holds — and closes with
// a sync point into the other superblock slot, whose image reopens to the
// same documents with every page accounted for.
func (s *crashSweep) recover(img crashImage) {
	t := s.t
	tag := fmt.Sprintf("seed %d, crash during op %d (%s)", s.seed, img.lo, s.ops[img.lo].kind)
	rec, files := s.open(tag, img.db, img.wal)
	got, at := dumpDocs(rec.Store()), -1
	for k := img.lo + 1; k >= img.lo; k-- {
		if s.dumps[k] == got {
			at = k
			break
		}
	}
	if at < 0 {
		t.Fatalf("%s: recovered documents match neither ops[:%d] nor ops[:%d]", tag, img.lo, img.lo+1)
	}
	if s.oracleAt != at {
		s.oracle = New(Config{BufferPoolBytes: 4 << 20})
		s.extended = New(Config{BufferPoolBytes: 4 << 20})
		for _, op := range s.ops[:at] {
			applyOp(t, s.oracle, op)
			applyOp(t, s.extended, op)
		}
		applyOp(t, s.extended, s.extraOp(at))
		s.oracleAt = at
	}
	verifyRecovered(t, tag, rec, s.oracle, s.queries)
	assertPagesAccounted(t, rec)

	tag += " +insert"
	applyOp(t, rec, s.extraOp(at))
	verifyRecovered(t, tag, rec, s.extended, s.queries[:1])
	if err := rec.Close(); err != nil {
		t.Fatalf("%s: close: %v", tag, err)
	}
	// Close sealed the database file; its log may still hold the records
	// the seal covers, which the reopen must skip.
	again, _ := s.open(tag+", reopened", files[0].Crash(s.seed), files[1].Crash(^s.seed))
	defer again.Close()
	if got, want := dumpDocs(again.Store()), dumpDocs(s.extended.Store()); got != want {
		t.Fatalf("%s: the sealed database reopens to other documents\ngot:\n%s\nwant:\n%s", tag, got, want)
	}
	assertPagesAccounted(t, again)
}

// open recovers a database from the images of its file and log, over
// CrashFiles it returns beside it.
func (s *crashSweep) open(tag string, db, wal []byte) (*DB, [2]*storage.CrashFile) {
	files := [2]*storage.CrashFile{storage.NewCrashFile(db), storage.NewCrashFile(wal)}
	fd, err := storage.OpenFiles(files[0], files[1])
	if err != nil {
		s.t.Fatalf("%s: reopen: %v", tag, err)
	}
	rec, err := openOn(Config{BufferPoolBytes: 1 << 20}, fd)
	if err != nil {
		s.t.Fatalf("%s: reopen: %v", tag, err)
	}
	return rec, files
}

// extraOp is the insert a database recovered at ops[:at] takes: a small
// subtree under the first document's root, the same for every image that
// recovers there.
func (s *crashSweep) extraOp(at int) torOp {
	rng := rand.New(rand.NewSource(s.seed<<16 | int64(at)))
	return torOp{kind: "insert", parentID: s.db.Store().Docs[0].Root.ID, doc: genDoc(rng, 6)}
}

// randomWrite returns an insert under a random node, or a delete of a
// random non-root node, of the sweep's current documents.
func (s *crashSweep) randomWrite(rng *rand.Rand) torOp {
	parents, victims := liveNodeIDs(s.db)
	if len(victims) > 0 && rng.Intn(3) == 0 {
		return torOp{kind: "delete", nodeID: victims[rng.Intn(len(victims))]}
	}
	return torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 8)}
}

// TestCrashDuringCheckpoint crashes a file-backed database at every
// change either of its files sees — through logged commits (pages evicted
// home from a small pool, log records, fsyncs) and two consecutive sync
// points (the flush, the catalog chain written copy-on-write, the free
// list, both fsyncs, the superblock into the other slot, the tail trim and
// the log truncation) — on 20 seeds. Every crash recovers to a commit
// boundary, every strategy agrees with the naive matcher, and every page
// is accounted for.
func TestCrashDuringCheckpoint(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	crashes := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newCrashSweep(t, seed, Config{BufferPoolBytes: 96 << 10})
		doc := genDoc(rng, 30)
		s.queries = []string{genQueryFor(rng, doc), genQueryFor(rng, doc)}
		s.do(torOp{kind: "load", doc: doc}, false)
		s.do(torOp{kind: "build"}, false)
		for round := 0; round < 2; round++ {
			for i := 0; i < 4; i++ {
				s.do(s.randomWrite(rng), true)
			}
			s.do(torOp{kind: "ckpt"}, true)
		}
		crashes += s.crashes
	}
	t.Logf("%d crashes recovered", crashes)
}

// TestCrashDuringCompact crashes at every change of repeated sync points
// under delete churn, whose free lists hold most of the file and whose
// trims shrink it, and checks every image as TestCrashDuringCheckpoint
// does — compaction moves and trims pages, never meaning.
func TestCrashDuringCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := newCrashSweep(t, 41, Config{BufferPoolBytes: 1 << 20})
	doc := genDoc(rng, 80)
	s.queries = []string{genQueryFor(rng, doc), genQueryFor(rng, doc)}
	s.do(torOp{kind: "load", doc: doc}, false)
	s.do(torOp{kind: "build"}, false)
	rootID := s.db.Store().Docs[0].Root.ID
	// Churn with a shrinking live set so frees outnumber allocations, and
	// run a sync point every round: it lists the free pages lowest first
	// and trims the all-free tail, so later rounds shrink the file.
	var live []int64
	peak, trimmed := 0, false
	for round := 0; round < 6; round++ {
		for step := 0; step < 10; step++ {
			sub := genDoc(rng, 6)
			s.do(torOp{kind: "insert", parentID: rootID, doc: sub}, false)
			live = append(live, s.db.Store().Docs[0].Root.Children[len(s.db.Store().Docs[0].Root.Children)-1].ID)
		}
		for len(live) > 4 {
			s.do(torOp{kind: "delete", nodeID: live[0]}, false)
			live = live[1:]
		}
		s.do(torOp{kind: "ckpt"}, true)
		n := s.db.fdisk.NumPages()
		trimmed = trimmed || n < peak
		peak = max(peak, n)
	}
	if !trimmed {
		t.Fatalf("no sync point trimmed the file (peak %d pages); the trim is not exercised", peak)
	}
	t.Logf("%d crashes recovered", s.crashes)
}
