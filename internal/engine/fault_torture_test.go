package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Fault torture: drive a file-backed engine with a deterministic fault
// injector firing read errors, bit flips, torn writes, write errors and
// fsync failures, while a fault-free in-memory engine serves as the
// differential oracle. The invariant under test is the robustness
// contract: the engine returns correct results or typed errors — never
// wrong answers — and a poisoned database degrades to read-only while
// still serving the last published snapshot.

// tortureTyped is the allowlist of error roots a faulted engine may
// surface. Anything outside it (or any wrong query answer) is a bug.
var tortureTyped = []error{
	storage.ErrInjected,
	storage.ErrCorruptPage,
	storage.ErrPoisoned,
	storage.ErrNoSpace,
	ErrReadOnly,
}

func assertTypedFault(t *testing.T, tag string, err error) {
	t.Helper()
	for _, e := range tortureTyped {
		if errors.Is(err, e) {
			return
		}
	}
	t.Fatalf("%s: untyped error under fault injection: %v", tag, err)
}

func TestFaultTortureDifferential(t *testing.T) {
	seeds, steps := 6, 40
	if testing.Short() {
		seeds, steps = 2, 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := []storage.FaultSpec{
				{Kind: storage.FaultReadErr, Prob: 0.002},
				{Kind: storage.FaultBitFlip, Prob: 0.005},
				{Kind: storage.FaultTornWrite, Prob: 0.005},
				{Kind: storage.FaultWriteErr, Prob: 0.002},
				{Kind: storage.FaultENOSPC, Prob: 0.001},
				{Kind: storage.FaultLatency, Prob: 0.001, Latency: time.Millisecond},
			}
			if seed%2 == 0 {
				// Half the seeds also lose an fsync at some point — one-shot
				// or sticky makes no difference to the poison latch, but
				// varies when the engine degrades.
				specs = append(specs, storage.FaultSpec{
					Kind: storage.FaultFsyncErr, After: rng.Intn(12), Sticky: seed%4 == 0,
				})
			}
			inj := storage.NewFaultInjector(seed, specs...)
			inj.Disarm() // setup runs un-faulted

			path := filepath.Join(t.TempDir(), "twig.db")
			db, err := Open(Config{Path: path, BufferPoolBytes: 512 << 10, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer db.fdisk.Close()
			oracle := New(Config{BufferPoolBytes: 4 << 20})

			load := torOp{kind: "load", doc: genDoc(rng, 40)}
			applyOp(t, db, load)
			applyOp(t, oracle, load)
			build := torOp{kind: "build"}
			applyOp(t, db, build)
			applyOp(t, oracle, build)

			db.SetFaultsArmed(true)

			// applyMut runs one mutation on the faulted engine and keeps the
			// oracle in sync: the oracle applies the op exactly when the
			// engine published it — detected by the snapshot sequence, since
			// a commit can be published and still fail later in the fsync.
			applyMut := func(tag string, op torOp) {
				seqBefore := db.Health().SnapshotSeq
				var err error
				switch op.kind {
				case "insert":
					err = db.InsertSubtree(op.parentID, cloneDoc(op.doc).Root)
				case "delete":
					err = db.DeleteSubtree(op.nodeID)
				case "build":
					err = db.Build(allKinds...)
				}
				if err != nil {
					assertTypedFault(t, tag, err)
				}
				published := db.Health().SnapshotSeq != seqBefore
				if err == nil && !published {
					t.Fatalf("%s: mutation reported success without publishing", tag)
				}
				if published {
					applyOp(t, oracle, op)
				}
			}

			verifyQueries := func(tag string) {
				q := genQueryFor(rng, oracle.Store().Docs[0])
				pat, err := xpath.Parse(q)
				if err != nil {
					t.Fatalf("%s: %q: %v", tag, q, err)
				}
				want := naive.Match(oracle.Store(), pat)
				for _, strat := range diffStrategies {
					got, gotErr := pinnedIDs(db, pat, strat)
					_, oraErr := pinnedIDs(oracle, pat, strat)
					if gotErr != nil {
						if oraErr == nil {
							assertTypedFault(t, fmt.Sprintf("%s: %q via %v", tag, q, strat), gotErr)
						}
						continue
					}
					if oraErr != nil {
						t.Fatalf("%s: %q via %v: engine answered but oracle has no such index: %v", tag, q, strat, oraErr)
					}
					if !equalIDs(got, want) {
						t.Fatalf("%s: WRONG ANSWER %q via %v: got %v want %v", tag, q, strat, got, want)
					}
				}
			}

			for step := 0; step < steps; step++ {
				tag := fmt.Sprintf("seed %d step %d", seed, step)
				switch r := rng.Intn(10); {
				case r < 4:
					parents, _ := liveNodeIDs(oracle)
					applyMut(tag, torOp{kind: "insert", parentID: parents[rng.Intn(len(parents))], doc: genDoc(rng, 8)})
				case r < 6:
					_, victims := liveNodeIDs(oracle)
					if len(victims) == 0 {
						continue
					}
					applyMut(tag, torOp{kind: "delete", nodeID: victims[rng.Intn(len(victims))]})
				case r < 7:
					applyMut(tag, torOp{kind: "build"})
				default:
					verifyQueries(tag)
				}
			}

			// Endgame: if the engine degraded, reads must still be exact and
			// writers must be rejected with ErrReadOnly carrying the cause.
			if h := db.Health(); h.ReadOnly {
				if h.Cause == nil || !h.Device.Poisoned {
					t.Fatalf("degraded without cause/poison: %+v", h)
				}
				parents, _ := liveNodeIDs(oracle)
				err := db.InsertSubtree(parents[0], cloneDoc(genDoc(rng, 4)).Root)
				if !errors.Is(err, ErrReadOnly) {
					t.Fatalf("degraded insert: got %v, want ErrReadOnly", err)
				}
				if err := db.Checkpoint(); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("degraded checkpoint: got %v, want ErrReadOnly", err)
				}
			}
			verifyQueries(fmt.Sprintf("seed %d final", seed))
			if err := db.Close(); err != nil {
				assertTypedFault(t, "close", err)
			}
		})
	}
}

// TestStickyWriteErrorKeepsSnapshot: a device whose writes fail forever
// mid-Insert must fail the mutation with a typed error, leave the
// published snapshot untouched (same sequence, same query answers), and
// not poison the disk — write errors are clean rejections, not fsyncgate.
func TestStickyWriteErrorKeepsSnapshot(t *testing.T) {
	inj := storage.NewFaultInjector(3, storage.FaultSpec{Kind: storage.FaultWriteErr, Sticky: true})
	inj.Disarm()
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 4 << 20, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadXML(strings.NewReader(`<a><b>x</b><b>y</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	var parentID int64 = -1
	db.Store().Walk(func(n *xmldb.Node) bool {
		if n.Label == "a" {
			parentID = n.ID
		}
		return true
	})
	if parentID < 0 {
		t.Fatal("no <a> node")
	}
	pat, err := xpath.Parse("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pinnedIDs(db, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	seqBefore := db.Health().SnapshotSeq

	db.SetFaultsArmed(true)
	sub, err := xmldb.ParseString(`<b>z</b>`)
	if err != nil {
		t.Fatal(err)
	}
	insErr := db.InsertSubtree(parentID, sub.Root)
	if !errors.Is(insErr, storage.ErrInjected) {
		t.Fatalf("insert under sticky write error: got %v, want ErrInjected", insErr)
	}
	h := db.Health()
	if h.SnapshotSeq != seqBefore {
		t.Fatalf("failed insert advanced snapshot %d -> %d", seqBefore, h.SnapshotSeq)
	}
	if h.ReadOnly || h.Device.Poisoned {
		t.Fatalf("write error must not degrade/poison: %+v", h)
	}
	got, err := pinnedIDs(db, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatalf("query after failed insert: %v", err)
	}
	if !equalIDs(got, want) {
		t.Fatalf("snapshot changed under failed insert: got %v want %v", got, want)
	}

	// Clear the fault: the same mutation now goes through and is visible.
	db.SetFaultsArmed(false)
	sub2, _ := xmldb.ParseString(`<b>z</b>`)
	if err := db.InsertSubtree(parentID, sub2.Root); err != nil {
		t.Fatalf("insert after disarm: %v", err)
	}
	got, err = pinnedIDs(db, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("post-recovery insert not visible: %v", got)
	}
}

// TestFsyncFailureDegradesToReadOnly pins the fsyncgate contract end to
// end: the commit whose fsync failed IS in the served snapshot (published
// before the sync), every further mutation is rejected with ErrReadOnly,
// Health explains why, and reopening the file recovers the last durable
// state with a healthy, writable engine.
func TestFsyncFailureDegradesToReadOnly(t *testing.T) {
	inj := storage.NewFaultInjector(1, storage.FaultSpec{Kind: storage.FaultFsyncErr})
	inj.Disarm()
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXML(strings.NewReader(`<a><b>x</b><b>y</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	var parentID int64 = -1
	db.Store().Walk(func(n *xmldb.Node) bool {
		if n.Label == "a" {
			parentID = n.ID
		}
		return true
	})
	pat, err := xpath.Parse("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	before, err := pinnedIDs(db, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}

	db.SetFaultsArmed(true)
	sub, _ := xmldb.ParseString(`<b>z</b>`)
	insErr := db.InsertSubtree(parentID, sub.Root)
	if !errors.Is(insErr, storage.ErrPoisoned) {
		t.Fatalf("insert with failed fsync: got %v, want ErrPoisoned", insErr)
	}
	h := db.Health()
	if !h.ReadOnly || h.Cause == nil || !h.Device.Poisoned {
		t.Fatalf("engine not degraded after fsync failure: %+v", h)
	}
	if !errors.Is(h.Cause, storage.ErrInjected) {
		t.Fatalf("Health cause %v does not carry the root fsync error", h.Cause)
	}

	// The snapshot was published before the failed fsync: reads serve it,
	// including the never-durable insert.
	got, err := pinnedIDs(db, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if len(got) != len(before)+1 {
		t.Fatalf("degraded snapshot missing the published commit: %v", got)
	}
	wantNaive := naive.Match(db.Store(), pat)
	if !equalIDs(got, wantNaive) {
		t.Fatalf("degraded read wrong: got %v want %v", got, wantNaive)
	}

	// Every mutation path is gated.
	if err := db.InsertSubtree(parentID, sub.Root); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert: got %v, want ErrReadOnly", err)
	}
	if err := db.DeleteSubtree(got[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete: got %v, want ErrReadOnly", err)
	}
	if err := db.Build(index.KindRootPaths); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("build: got %v, want ErrReadOnly", err)
	}
	if err := db.AddDocument(&xmldb.Document{Root: &xmldb.Node{Label: "r"}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("add: got %v, want ErrReadOnly", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("checkpoint: got %v, want ErrReadOnly", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("degraded close: %v", err)
	}

	// Reopen fault-free: the poisoned commit was appended but never
	// fsynced, so it may or may not have reached the medium — recovery
	// must land on one of the two commit boundaries (never a mix), with a
	// healthy, writable engine either way.
	re, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if h := re.Health(); h.ReadOnly {
		t.Fatalf("poison survived reopen: %+v", h)
	}
	recovered, err := pinnedIDs(re, pat, plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(recovered, before) && !equalIDs(recovered, got) {
		t.Fatalf("recovered to %v, want a commit boundary (%v or %v)", recovered, before, got)
	}
	if want := naive.Match(re.Store(), pat); !equalIDs(recovered, want) {
		t.Fatalf("recovered index answers %v, store says %v", recovered, want)
	}
	sub3, _ := xmldb.ParseString(`<b>w</b>`)
	if err := re.InsertSubtree(parentID, sub3.Root); err != nil {
		t.Fatalf("recovered engine not writable: %v", err)
	}
}
