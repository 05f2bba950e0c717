package engine

// Transaction-layer tests: multi-statement atomicity and isolation,
// rollback, optimistic conflict detection, the disjoint-commit replay
// path, AS OF snapshot retention, and the implicit single-statement
// operations that must never surface a conflict.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// txTestDB opens an in-memory engine with one parsed document and all
// indices built, returning the document root's node id.
func txTestDB(t *testing.T, xml string) (*DB, int64) {
	t.Helper()
	db := New(Config{BufferPoolBytes: 4 << 20})
	doc, err := xmldb.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}
	return db, doc.Root.ID
}

// matchIDs runs a query through the naive matcher on the live database.
func matchIDs(t *testing.T, db *DB, q string) []int64 {
	t.Helper()
	pat, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return db.MatchNaive(pat)
}

// txMatch runs a query inside a transaction's private view.
func txMatch(t *testing.T, tx *Tx, q string) []int64 {
	t.Helper()
	pat, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tx.Read(pat, ReadOpts{Planner: Oracle})
	if err != nil {
		t.Fatal(err)
	}
	return res.IDs
}

// asOfIDs is a serial planner-chosen read of the version numbered seq.
func asOfIDs(db *DB, pat *xpath.Pattern, seq uint64) ([]int64, error) {
	res, err := db.ReadAsOf(seq, pat, ReadOpts{Planner: Auto})
	return res.IDs, err
}

// mustSub parses a standalone fragment for Tx.Insert.
func mustSub(t *testing.T, xml string) *xmldb.Node {
	t.Helper()
	doc, err := xmldb.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Root
}

func TestTxMultiStatementAtomicity(t *testing.T) {
	db, rootID := txTestDB(t, `<a><b>v0</b><c>v1</c></a>`)
	defer db.Close()

	cID := matchIDs(t, db, `/a/c`)
	if len(cID) != 1 {
		t.Fatalf("setup: /a/c matched %v", cID)
	}

	tx := db.Begin()
	defer tx.Rollback()
	if err := tx.Insert(rootID, mustSub(t, `<d>v2</d>`)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(cID[0]); err != nil {
		t.Fatal(err)
	}

	// The transaction sees its own statements...
	if got := txMatch(t, tx, `/a/d`); len(got) != 1 {
		t.Fatalf("tx view: /a/d matched %v, want 1", got)
	}
	if got := txMatch(t, tx, `/a/c`); len(got) != 0 {
		t.Fatalf("tx view: deleted /a/c still matches %v", got)
	}
	// ...while the published database sees none of them.
	if got := matchIDs(t, db, `/a/d`); len(got) != 0 {
		t.Fatalf("uncommitted insert leaked: /a/d matched %v", got)
	}
	if got := matchIDs(t, db, `/a/c`); len(got) != 1 {
		t.Fatalf("uncommitted delete leaked: /a/c matched %v", got)
	}

	// The tx view must also agree with itself across the planner.
	pat, err := xpath.Parse(`/a/d`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tx.Read(pat, ReadOpts{Planner: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(res.IDs, txMatch(t, tx, `/a/d`)) {
		t.Fatalf("tx planner/naive disagree: %v", res.IDs)
	}

	seqBefore := db.CurrentSeq()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.CurrentSeq() != seqBefore+1 {
		t.Fatalf("commit published %d versions, want exactly 1", db.CurrentSeq()-seqBefore)
	}
	// Both statements landed atomically.
	if got := matchIDs(t, db, `/a/d`); len(got) != 1 {
		t.Fatalf("after commit: /a/d matched %v", got)
	}
	if got := matchIDs(t, db, `/a/c`); len(got) != 0 {
		t.Fatalf("after commit: /a/c still matches %v", got)
	}

	// The finished transaction rejects further use.
	if err := tx.Insert(rootID, mustSub(t, `<e/>`)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Insert after Commit: %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double Commit: %v, want ErrTxDone", err)
	}
}

func TestTxRollback(t *testing.T) {
	db, rootID := txTestDB(t, `<a><b>v0</b></a>`)
	defer db.Close()

	before := xmldb.Dump(db.Store().Docs[0].Root)
	seqBefore := db.CurrentSeq()
	nextBefore := db.Store().NextID()

	tx := db.Begin()
	if err := tx.Insert(rootID, mustSub(t, `<d><e>v9</e></d>`)); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	tx.Rollback() // second rollback is a no-op

	if got := xmldb.Dump(db.Store().Docs[0].Root); got != before {
		t.Fatalf("rollback changed the store:\n%s\nwant:\n%s", got, before)
	}
	if db.CurrentSeq() != seqBefore {
		t.Fatalf("rollback published a version: seq %d -> %d", seqBefore, db.CurrentSeq())
	}
	// The rolled-back reservation was returned, so the next insert reuses
	// the same id range (keeps id parity with a serial history).
	if got := db.nextNodeID.Load(); got != nextBefore {
		t.Fatalf("rollback leaked node ids: nextNodeID %d, want %d", got, nextBefore)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Commit after Rollback: %v, want ErrTxDone", err)
	}

	// The database still accepts work.
	if err := db.InsertSubtree(rootID, mustSub(t, `<z/>`)); err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(t, db, `/a/z`); len(got) != 1 {
		t.Fatalf("insert after rollback: /a/z matched %v", got)
	}
}

func TestTxConflictOverlappingDocs(t *testing.T) {
	db, _ := txTestDB(t, `<a><b>v0</b></a>`)
	defer db.Close()
	// Second, disjoint document for the post-conflict sanity write.
	docB, err := xmldb.ParseString(`<q><r>v1</r></q>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertSubtree(0, docB.Root); err != nil {
		t.Fatal(err)
	}
	rootA := matchIDs(t, db, `/a`)[0]

	tx1 := db.Begin()
	tx2 := db.Begin()
	defer tx1.Rollback()
	defer tx2.Rollback()
	if err := tx1.Insert(rootA, mustSub(t, `<w1/>`)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(rootA, mustSub(t, `<w2/>`)); err != nil {
		t.Fatal(err)
	}

	if err := tx1.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	err = tx2.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("overlapping commit: %v, want ErrConflict", err)
	}

	// The loser published nothing: tx1's write is there, tx2's is not.
	if got := matchIDs(t, db, `/a/w1`); len(got) != 1 {
		t.Fatalf("winner's write missing: /a/w1 matched %v", got)
	}
	if got := matchIDs(t, db, `/a/w2`); len(got) != 0 {
		t.Fatalf("conflicted write leaked: /a/w2 matched %v", got)
	}

	// A fresh transaction on the untouched document commits cleanly.
	tx3 := db.Begin()
	defer tx3.Rollback()
	if err := tx3.Insert(docB.Root.ID, mustSub(t, `<w3/>`)); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatalf("post-conflict commit on disjoint doc: %v", err)
	}
	if got := matchIDs(t, db, `/q/w3`); len(got) != 1 {
		t.Fatalf("/q/w3 matched %v", got)
	}
}

// TestTxDisjointCommitReplay exercises the replay path: two transactions
// share a base, touch different documents, and both commit — the second
// by replaying its statements onto the first's published version. The
// result must equal the serial history, verified across every strategy.
func TestTxDisjointCommitReplay(t *testing.T) {
	db, rootA := txTestDB(t, `<a><b>v0</b><c>v1</c></a>`)
	defer db.Close()
	docB, err := xmldb.ParseString(`<q><r>v1</r><s>v2</s></q>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertSubtree(0, docB.Root); err != nil {
		t.Fatal(err)
	}

	// Prototype subtrees, cloned per engine so ids replay identically.
	subA, err := xmldb.ParseString(`<d><e>v7</e></d>`)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := xmldb.ParseString(`<w><u>v8</u></w>`)
	if err != nil {
		t.Fatal(err)
	}

	tx1 := db.Begin()
	tx2 := db.Begin()
	defer tx1.Rollback()
	defer tx2.Rollback()
	if err := tx1.Insert(rootA, cloneDoc(&xmldb.Document{Root: subA.Root}).Root); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(docB.Root.ID, cloneDoc(&xmldb.Document{Root: subB.Root}).Root); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("disjoint write-sets must not conflict: %v", err)
	}

	// Serial oracle: the same statements applied in numbering order.
	oracle := New(Config{BufferPoolBytes: 4 << 20})
	defer oracle.Close()
	od1, _ := xmldb.ParseString(`<a><b>v0</b><c>v1</c></a>`)
	if err := oracle.AddDocument(od1); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Build(allKinds...); err != nil {
		t.Fatal(err)
	}
	od2, _ := xmldb.ParseString(`<q><r>v1</r><s>v2</s></q>`)
	if err := oracle.InsertSubtree(0, od2.Root); err != nil {
		t.Fatal(err)
	}
	if err := oracle.InsertSubtree(od1.Root.ID, cloneDoc(&xmldb.Document{Root: subA.Root}).Root); err != nil {
		t.Fatal(err)
	}
	if err := oracle.InsertSubtree(od2.Root.ID, cloneDoc(&xmldb.Document{Root: subB.Root}).Root); err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, "disjoint replay", db, oracle,
		[]string{`/a/d/e`, `/q/w/u`, `//e`, `/a//c`})
}

func TestTxReadOnlyCommitIsNoop(t *testing.T) {
	db, _ := txTestDB(t, `<a><b>v0</b></a>`)
	defer db.Close()

	seq := db.CurrentSeq()
	commits := db.QueryCounters().TxCommits
	tx := db.Begin()
	if got := txMatch(t, tx, `/a/b`); len(got) != 1 {
		t.Fatalf("tx read: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	if db.CurrentSeq() != seq {
		t.Fatalf("read-only commit published a version: %d -> %d", seq, db.CurrentSeq())
	}
	if got := db.QueryCounters().TxCommits; got != commits {
		t.Fatalf("read-only commit counted: %d -> %d", commits, got)
	}
}

// TestUpdateRetriesOnConflict forces a deterministic conflict: the first
// attempt of the closure commits an implicit single-statement write to the
// same document before returning, so its own commit must fail validation
// and Update must re-run the closure on a fresh base.
func TestUpdateRetriesOnConflict(t *testing.T) {
	db, rootID := txTestDB(t, `<a><b>v0</b></a>`)
	defer db.Close()

	retriesBefore := db.QueryCounters().TxRetries
	attempts := 0
	err := db.Update(func(tx *Tx) error {
		attempts++
		if attempts == 1 {
			// Interfering writer: commits between this tx's Begin and Commit.
			if err := db.InsertSubtree(rootID, mustSub(t, `<x/>`)); err != nil {
				return err
			}
		}
		return tx.Insert(rootID, mustSub(t, `<y/>`))
	}, 8)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("closure ran %d times, want 2 (one conflict, one clean)", attempts)
	}
	if got := db.QueryCounters().TxRetries - retriesBefore; got < 1 {
		t.Fatalf("retry counter delta %d, want >= 1", got)
	}
	// Both the interfering write and the retried write are present, once.
	if got := matchIDs(t, db, `/a/x`); len(got) != 1 {
		t.Fatalf("/a/x matched %v", got)
	}
	if got := matchIDs(t, db, `/a/y`); len(got) != 1 {
		t.Fatalf("/a/y matched %v, want exactly one (no double-apply)", got)
	}

	// Zero retries budget: the same interference pattern surfaces the
	// conflict to the caller instead.
	attempts = 0
	err = db.Update(func(tx *Tx) error {
		attempts++
		if err := db.InsertSubtree(rootID, mustSub(t, `<x2/>`)); err != nil {
			return err
		}
		return tx.Insert(rootID, mustSub(t, `<y2/>`))
	}, 0)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("Update with 0 retries: %v, want ErrConflict", err)
	}
	if attempts != 1 {
		t.Fatalf("closure ran %d times, want 1", attempts)
	}
	if got := matchIDs(t, db, `/a/y2`); len(got) != 0 {
		t.Fatalf("failed Update leaked /a/y2: %v", got)
	}

	// A closure error rolls back without retrying.
	boom := errors.New("boom")
	attempts = 0
	err = db.Update(func(tx *Tx) error {
		attempts++
		if err := tx.Insert(rootID, mustSub(t, `<y3/>`)); err != nil {
			return err
		}
		return boom
	}, 8)
	if !errors.Is(err, boom) {
		t.Fatalf("Update with failing closure: %v, want boom", err)
	}
	if attempts != 1 {
		t.Fatalf("failing closure ran %d times, want 1", attempts)
	}
	if got := matchIDs(t, db, `/a/y3`); len(got) != 0 {
		t.Fatalf("aborted Update leaked /a/y3: %v", got)
	}
}

func TestRetainSnapshotsAsOf(t *testing.T) {
	const retain = 4
	db := New(Config{BufferPoolBytes: 4 << 20, RetainSnapshots: retain})
	defer db.Close()
	doc, err := xmldb.ParseString(`<a><b>v0</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}
	pat, err := xpath.Parse(`/a/x`)
	if err != nil {
		t.Fatal(err)
	}

	// Ten commits, each adding one /a/x; record the expected count at
	// every published sequence number.
	wantAt := map[uint64]int{db.CurrentSeq(): 0}
	for i := 0; i < 10; i++ {
		if err := db.InsertSubtree(doc.Root.ID, mustSub(t, fmt.Sprintf(`<x>t%d</x>`, i))); err != nil {
			t.Fatal(err)
		}
		wantAt[db.CurrentSeq()] = i + 1
	}
	cur := db.CurrentSeq()

	if got := db.RetainedSnapshots(); got > retain {
		t.Fatalf("retained %d snapshots, window is %d", got, retain)
	}

	for seq, want := range wantAt {
		ids, err := asOfIDs(db, pat, seq)
		switch {
		case seq >= cur-uint64(retain) && seq <= cur:
			// Inside the window: the current version plus the `retain`
			// versions before it.
			if err != nil {
				t.Fatalf("AS OF %d (cur %d): %v", seq, cur, err)
			}
			if len(ids) != want {
				t.Fatalf("AS OF %d: %d matches, want %d", seq, len(ids), want)
			}
		default:
			if !errors.Is(err, ErrSnapshotRetired) {
				t.Fatalf("AS OF %d (outside window, cur %d): err %v, want ErrSnapshotRetired", seq, cur, err)
			}
		}
	}

	// A future sequence number is an error, not a wait.
	if _, err := asOfIDs(db, pat, cur+1); err == nil {
		t.Fatalf("AS OF future seq %d succeeded", cur+1)
	}

	// With no retention configured, only the current version answers.
	db2, root2 := txTestDB(t, `<a><b>v0</b></a>`)
	defer db2.Close()
	old := db2.CurrentSeq()
	if err := db2.InsertSubtree(root2, mustSub(t, `<x/>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := asOfIDs(db2, pat, old); !errors.Is(err, ErrSnapshotRetired) {
		t.Fatalf("AS OF with zero retention: %v, want ErrSnapshotRetired", err)
	}
	if ids, err := asOfIDs(db2, pat, db2.CurrentSeq()); err != nil || len(ids) != 1 {
		t.Fatalf("AS OF current with zero retention: %v %v", ids, err)
	}
}

// implicitScript is one writer's share of TestImplicitOpsNeverConflict:
// every third operation deletes the node the one before it inserted.
func implicitScript(db *DB, rootID int64, w, ops int) error {
	var last *xmldb.Node
	for i := 0; i < ops; i++ {
		if i%3 == 2 {
			if err := db.DeleteSubtree(last.ID); err != nil {
				return fmt.Errorf("writer %d op %d: delete: %w", w, i, err)
			}
			continue
		}
		last = xmldb.Text("n", fmt.Sprintf("w%d-%d", w, i))
		if err := db.InsertSubtree(rootID, last); err != nil {
			return fmt.Errorf("writer %d op %d: insert: %w", w, i, err)
		}
	}
	return nil
}

// TestImplicitOpsNeverConflict hammers one document from several
// goroutines through the implicit single-statement path — Update without
// a retry bound, every attempt prepared outside the writer lock. Each
// writer yields between preparing and validating, so attempts do collide;
// none may surface ErrConflict, retries must have happened, and the final
// state must be what the same scripts leave when run one after another.
func TestImplicitOpsNeverConflict(t *testing.T) {
	db, rootID := txTestDB(t, `<a><b>v0</b></a>`)
	defer db.Close()
	db.SetCommitHook(func(s CommitStage) {
		if s == CommitStagePrepared {
			runtime.Gosched()
		}
	})

	const writers, perWriter = 8, 50
	retriesBefore := db.QueryCounters().TxRetries
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = implicitScript(db, rootID, w, perWriter)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := db.QueryCounters().TxRetries - retriesBefore; got == 0 {
		t.Errorf("no implicit operation was retried: the writers never collided")
	}

	oracle, oracleRoot := txTestDB(t, `<a><b>v0</b></a>`)
	defer oracle.Close()
	for w := 0; w < writers; w++ {
		if err := implicitScript(oracle, oracleRoot, w, perWriter); err != nil {
			t.Fatal(err)
		}
	}
	values := func(db *DB) []string {
		var out []string
		ids := matchIDs(t, db, `/a/n`)
		db.ViewNodes(func(store *xmldb.Store) {
			for _, id := range ids {
				out = append(out, store.NodeByID(id).Value)
			}
		})
		sort.Strings(out)
		return out
	}
	if got, want := values(db), values(oracle); !slices.Equal(got, want) {
		t.Fatalf("concurrent implicit operations left %d values %v, run serially they leave %d", len(got), got, len(want))
	}
	pat, err := xpath.Parse(`/a/n`)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _, err := db.QueryPatternBest(pat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, matchIDs(t, db, `/a/n`)) {
		t.Fatalf("planner/naive disagree after concurrent implicit operations")
	}
}

// TestConcurrentExplicitTxStress runs explicit transactions from many
// goroutines — disjoint documents must all commit without conflicts;
// the race detector covers the synchronization.
func TestConcurrentExplicitTxStress(t *testing.T) {
	db := New(Config{BufferPoolBytes: 8 << 20})
	defer db.Close()
	const writers = 4
	roots := make([]int64, writers)
	for w := 0; w < writers; w++ {
		doc, err := xmldb.ParseString(fmt.Sprintf(`<d%d><seed/></d%d>`, w, w))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
		roots[w] = doc.Root.ID
	}
	if err := db.Build(allKinds...); err != nil {
		t.Fatal(err)
	}

	conflictsBefore := db.QueryCounters().TxConflicts
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 10; i++ {
				tx := db.Begin()
				for s := 0; s < 1+rng.Intn(3); s++ {
					if err := tx.Insert(roots[w], mustSub(t, fmt.Sprintf(`<n>w%d-%d-%d</n>`, w, i, s))); err != nil {
						tx.Rollback()
						errs[w] = err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs[w] = fmt.Errorf("writer %d commit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := db.QueryCounters().TxConflicts - conflictsBefore; got != 0 {
		t.Fatalf("disjoint writers raised %d conflicts, want 0", got)
	}
	for w := 0; w < writers; w++ {
		if got := matchIDs(t, db, fmt.Sprintf(`/d%d/n`, w)); len(got) < 10 {
			t.Fatalf("writer %d: %d committed statements, want >= 10", w, len(got))
		}
	}
}

// pathsRows scans the ROOTPATHS and DATAPATHS trees of the current version
// into key · value rows, in scan order.
func pathsRows(t *testing.T, db *DB) []string {
	t.Helper()
	var rows []string
	for _, p := range []*index.Paths{db.Env().RP, db.Env().DP} {
		it, err := p.Tree().Scan()
		if err != nil {
			t.Fatal(err)
		}
		for ; it.Valid(); it.Next() {
			rows = append(rows, fmt.Sprintf("%v %x %x", p.Kind(), it.Key(), it.ValueRef()))
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// TestReverseCommitOrderKeepsIdListOrder: two transactions reserve node
// ids under one parent, and the one with the higher ids commits first, so
// the lower ids follow it in document order. The maintained path indices
// keep each run of duplicate keys in IdList order, and so must a Build,
// which emits rows in document order: both scan identically, and deletes
// of both subtrees then find every row.
func TestReverseCommitOrderKeepsIdListOrder(t *testing.T) {
	db, rootID := txTestDB(t, `<a><e><k>v</k></e></a>`)
	defer db.Close()
	early, late := mustSub(t, `<e><k>v</k><k>w</k></e>`), mustSub(t, `<e><k>v</k></e>`)
	txEarly, txLate := db.Begin(), db.Begin()
	if err := txEarly.Insert(rootID, early); err != nil {
		t.Fatal(err)
	}
	if err := txLate.Insert(rootID, late); err != nil {
		t.Fatal(err)
	}
	if early.ID >= late.ID {
		t.Fatalf("ids reserved out of order: %d, then %d", early.ID, late.ID)
	}
	if err := txLate.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txEarly.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second commit under one parent: %v, want ErrConflict", err)
	}
	// The retry keeps the template's reserved ids.
	if err := db.Update(func(tx *Tx) error { return tx.Insert(rootID, early) }, 0); err != nil {
		t.Fatal(err)
	}
	store, err := db.storeOf(db.CurrentSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var order []int64
	for _, c := range store.NodeByID(rootID).Children {
		order = append(order, c.ID)
	}
	if want := []int64{rootID + 1, late.ID, early.ID}; !slices.Equal(order, want) {
		t.Fatalf("children of the root in document order: %v, want %v", order, want)
	}

	maintained := pathsRows(t, db)
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	if built := pathsRows(t, db); !slices.Equal(maintained, built) {
		t.Fatalf("maintained indices scan %d rows, a build %d, or in another order", len(maintained), len(built))
	}
	for _, sub := range []*xmldb.Node{early, late} {
		if err := db.Update(func(tx *Tx) error { return tx.Delete(sub.ID) }, 0); err != nil {
			t.Fatalf("delete of %d after the build: %v", sub.ID, err)
		}
	}
	if got := matchIDs(t, db, `/a/e/k`); len(got) != 1 {
		t.Fatalf("/a/e/k = %v after the deletes, want the original only", got)
	}
}
