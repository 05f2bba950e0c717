package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// numbered numbers a template in pre-order from first, as the engine's id
// allocator does.
func numbered(root *xmldb.Node, first int64) *xmldb.Node {
	var assign func(*xmldb.Node)
	assign = func(n *xmldb.Node) {
		n.ID = first
		first++
		for _, c := range n.Children {
			assign(c)
		}
	}
	assign(root)
	return root
}

// txRecordSeeds are logged commits of the shapes the engine writes: one
// insert, one delete, and a transaction mixing both with a new document
// and an empty value.
func txRecordSeeds() [][]byte {
	doc := &xmldb.Node{Label: "doc", Children: []*xmldb.Node{{Label: "@k", Value: "", HasValue: true}}}
	return [][]byte{
		appendTxRecord(nil, 108, []txOp{{insert: true, parentID: 5, sub: numbered(listing(1), 101)}}),
		appendTxRecord(nil, 108, []txOp{{nodeID: 42}}),
		appendTxRecord(nil, 1<<40, []txOp{
			{insert: true, parentID: 9, sub: numbered(listing(2), 200)},
			{nodeID: 202},
			{insert: true, sub: numbered(doc, 300)},
		}),
	}
}

// FuzzDecodeTxRecord decodes fuzzed logged commits: a record that decodes
// must be exactly the bytes its decoding re-encodes to, and anything else
// must fail with an error matching storage.ErrCorruptPage. Seeds: the
// shapes txRecordSeeds makes, plus truncated, overlong and flipped
// variants checked in under testdata/fuzz/FuzzDecodeTxRecord.
func FuzzDecodeTxRecord(f *testing.F) {
	for _, rec := range txRecordSeeds() {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		nextID, ops, err := decodeTxRecord(rec)
		if err != nil {
			if !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if again := appendTxRecord(nil, nextID, ops); !bytes.Equal(again, rec) {
			t.Fatalf("record %x decodes to %d ops that re-encode as %x", rec, len(ops), again)
		}
	})
}

// TestLoggedCommitWritesNoPage: a durable insert of a 7-node listing into a
// built XMark database appends one small record to the WAL and writes no
// page to the device — its pages stay in the pool until a sync point.
func TestLoggedCommitWritesNoPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, items := xmarkItems(t, 10, Config{Path: path, BufferPoolBytes: 64 << 20})
	defer db.Close()
	before := db.DeviceStats()
	if err := db.InsertSubtree(items[3], listing(1)); err != nil {
		t.Fatal(err)
	}
	after := db.DeviceStats()
	if grew := after.WALBytes - before.WALBytes; grew <= 0 || grew > 4096 {
		t.Errorf("the commit grew the WAL by %d bytes, want 1..4096", grew)
	}
	if wrote := after.BytesWritten - before.BytesWritten; wrote > 4096 {
		t.Errorf("the commit wrote %d bytes, want at most 4096", wrote)
	}
	if w := after.Writes - before.Writes; w != 0 {
		t.Errorf("the commit wrote %d pages to the device, want 0", w)
	}
	if after.WALFsyncs-before.WALFsyncs != 1 || after.CommitsSinceSync != 1 {
		t.Errorf("fsyncs %d, commits since sync %d; want 1 and 1", after.WALFsyncs-before.WALFsyncs, after.CommitsSinceSync)
	}
}

// copyUnclosed copies a database's file and WAL as they are, without
// closing it — nothing is flushed that a crash would not have — and
// returns the copy's path.
func copyUnclosed(t *testing.T, path string) string {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "copy.db")
	for _, suffix := range []string{"", storage.WALSuffix} {
		b, err := os.ReadFile(path + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// requireSameDocs fails unless got holds exactly want's documents and
// answers //listing alike under ROOTPATHS.
func requireSameDocs(t *testing.T, tag string, got, want *DB) {
	t.Helper()
	if g, w := dumpDocs(got.Store()), dumpDocs(want.Store()); g != w {
		t.Fatalf("%s: documents diverge", tag)
	}
	pat := xpath.MustParse(`//listing`)
	g, gerr := pinnedIDs(got, pat, plan.RootPathsPlan)
	w, werr := pinnedIDs(want, pat, plan.RootPathsPlan)
	if gerr != nil || werr != nil || !slices.Equal(g, w) {
		t.Fatalf("%s: //listing answers %v (%v), want %v (%v)", tag, g, gerr, w, werr)
	}
}

// TestLoggedCommitsSurviveCrashCopy is the benchmark's durability check in
// process: a hundred logged commits — inserts, and deletes of the oldest
// listing once twenty are live — then the files copied without Close. The
// copy replays all of them: every acknowledged listing is present, every
// deleted one absent, and the indices agree.
func TestLoggedCommitsSurviveCrashCopy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, items := xmarkItems(t, 10, Config{Path: path, BufferPoolBytes: 64 << 20})
	defer db.Close()
	var live, deleted []int64
	commits := 0
	for i := 0; commits < 100; i++ {
		sub := listing(i)
		if err := db.InsertSubtree(items[i*7%len(items)], sub); err != nil {
			t.Fatal(err)
		}
		live = append(live, sub.ID)
		commits++
		if len(live) > 20 && commits < 100 {
			if err := db.DeleteSubtree(live[0]); err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, live[0])
			live = live[1:]
			commits++
		}
	}
	rec, err := Open(Config{Path: copyUnclosed(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st := rec.DeviceStats(); st.RecoveredCommits != 100 || st.CommitsSinceSync != 100 {
		t.Fatalf("recovered %d commits, %d past the sync point; want 100 and 100", st.RecoveredCommits, st.CommitsSinceSync)
	}
	got, err := pinnedIDs(rec, xpath.MustParse(`//listing`), plan.RootPathsPlan)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(live)
	if !slices.Equal(got, live) {
		t.Fatalf("recovered listings %v, acknowledged %v", got, live)
	}
	for _, id := range deleted {
		if rec.Store().NodeByID(id) != nil {
			t.Fatalf("deleted listing %d is back", id)
		}
	}
	requireSameDocs(t, "crash copy", rec, db)
	if got, want := rec.Store().NextID(), db.CurrentSnapshot().nextID; got != want {
		t.Fatalf("recovered id counter %d, want %d", got, want)
	}
}

// TestReplayIsOneCommit: Open replays a log of logged commits — inserts,
// and deletes of listings inserted earlier in the same log — as one commit
// replay, with AS OF retention on: it reads the store from the node table
// once, publishes one version (seq 1), and answers like the live database.
func TestReplayIsOneCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, items := xmarkItems(t, 4, Config{Path: path, BufferPoolBytes: 64 << 20, RetainSnapshots: 4})
	defer db.Close()
	var live []int64
	for i := 0; i < 12; i++ {
		sub := listing(i)
		if err := db.InsertSubtree(items[i%len(items)], sub); err != nil {
			t.Fatal(err)
		}
		if live = append(live, sub.ID); len(live) > 4 {
			if err := db.DeleteSubtree(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	rec, err := Open(Config{Path: copyUnclosed(t, path), RetainSnapshots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st := rec.DeviceStats(); st.RecoveredCommits < 10 {
		t.Fatalf("recovered %d commits, want at least 10", st.RecoveredCommits)
	}
	if n := rec.storeLoads.Load(); n != 1 {
		t.Fatalf("the replay read the store %d times, want 1", n)
	}
	if seq := rec.CurrentSeq(); seq != 1 {
		t.Fatalf("the replay published up to seq %d, want 1", seq)
	}
	requireSameDocs(t, "one-commit replay", rec, db)
	for _, q := range []string{`//listing/price`, `//item[listing/seller]`, `//listing[currency="USD"]/note`} {
		pat := xpath.MustParse(q)
		for _, s := range diffStrategies[:2] {
			got, gerr := pinnedIDs(rec, pat, s)
			want, werr := pinnedIDs(db, pat, s)
			if gerr != nil || werr != nil || !slices.Equal(got, want) {
				t.Fatalf("%s via %v: replayed %v (%v), live %v (%v)", q, s, got, gerr, want, werr)
			}
		}
	}
	if got, want := rec.Store().NextID(), db.CurrentSnapshot().nextID; got != want {
		t.Fatalf("recovered id counter %d, want %d", got, want)
	}
}

// TestTornLoggedCommit tears the last logged commit at every byte: the
// recovered database is the one before it, until the record is whole.
func TestTornLoggedCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := genDoc(rng, 30)
	if err := db.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := db.InsertSubtree(doc.Root.ID, genDoc(rng, 8).Root); err != nil {
			t.Fatal(err)
		}
	}
	prev, prevDocs := db.fdisk.WALSize(), dumpDocs(db.Store())
	if err := db.InsertSubtree(doc.Root.ID, genDoc(rng, 8).Root); err != nil {
		t.Fatal(err)
	}
	end, lastDocs := db.fdisk.WALSize(), dumpDocs(db.Store())
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path + storage.WALSuffix)
	if err != nil || int64(len(wal)) != end {
		t.Fatalf("WAL image %d bytes (%v), device reports %d", len(wal), err, end)
	}
	dir := t.TempDir()
	for off := prev; off <= end; off++ {
		cp := filepath.Join(dir, "torn.db")
		if err := os.WriteFile(cp, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp+storage.WALSuffix, wal[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(Config{Path: cp})
		if err != nil {
			t.Fatalf("cut at %d of %d..%d: %v", off, prev, end, err)
		}
		want, commits, kept := prevDocs, int64(2), prev
		if off == end {
			want, commits, kept = lastDocs, 3, end
		}
		st := rec.DeviceStats()
		if got := dumpDocs(rec.Store()); got != want || st.RecoveredCommits != commits || st.WALBytesDiscarded != off-kept {
			t.Fatalf("cut at %d of %d..%d: recovered %d commits, discarded %d bytes, documents equal: %v",
				off, prev, end, st.RecoveredCommits, st.WALBytesDiscarded, got == want)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackupAndCompactAfterLoggedCommits: Backup and a sync point right
// after logged commits, no checkpoint between. The backup must hold the
// live database — its pages are dirty in the pool, which Backup's device
// reads bypass, so it runs a sync point first — and a crash copy taken
// after a Checkpoint, whose sync point seals the logged commits and trims
// the file, recovers the live database too, replaying nothing.
func TestBackupAndCompactAfterLoggedCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db, items := xmarkItems(t, 4, Config{Path: path, BufferPoolBytes: 64 << 20})
	defer db.Close()
	var live []int64
	for i := 0; i < 30; i++ {
		sub := listing(i)
		if err := db.InsertSubtree(items[i%len(items)], sub); err != nil {
			t.Fatal(err)
		}
		if live = append(live, sub.ID); len(live) > 10 {
			if err := db.DeleteSubtree(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	if n, _ := db.fdisk.LogSinceSync(); n == 0 {
		t.Fatal("no commit was logged")
	}
	backup := filepath.Join(dir, "backup.db")
	if err := db.Backup(backup); err != nil {
		t.Fatal(err)
	}
	b, err := Open(Config{Path: backup})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	requireSameDocs(t, "backup", b, db)
	assertPagesAccounted(t, b)

	if err := db.InsertSubtree(items[0], listing(99)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash, err := Open(Config{Path: copyUnclosed(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	defer crash.Close()
	if st := crash.DeviceStats(); st.RecoveredCommits != 0 {
		t.Fatalf("the crash copy replayed %d commits after a sync point", st.RecoveredCommits)
	}
	requireSameDocs(t, "crash copy after a sync point", crash, db)
	assertPagesAccounted(t, crash)
}

// TestSyncPointTrimsTailUnderLoggedCommits: the writer never stops — logged
// commits between sync points, never a quiet moment — yet the file's
// all-free tail is returned to the filesystem. A large insert grows the
// file and a delete frees it again; each sync point then lists the free
// pages lowest first, so the following commits copy the live pages left at
// the tail down into the holes, and a later sync point trims the tail.
func TestSyncPointTrimsTailUnderLoggedCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, items := xmarkItems(t, 4, Config{Path: path, BufferPoolBytes: 64 << 20})
	defer db.Close()
	big := &xmldb.Node{Label: "bulk"}
	for i := 0; i < 400; i++ {
		big.Children = append(big.Children, listing(i))
	}
	if err := db.InsertSubtree(items[0], big); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteSubtree(big.ID); err != nil {
		t.Fatal(err)
	}
	peak := db.fdisk.NumPages()
	for round := 0; round < 8 && db.fdisk.NumPages() >= peak; round++ {
		for i := 0; i < 10; i++ {
			if err := db.InsertSubtree(items[(round*10+i)%len(items)], listing(1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.fdisk.NumPages(); n >= peak {
		t.Fatalf("%d pages after eight rounds of logged commits and sync points, %d at the peak: the tail was never trimmed", n, peak)
	}
	if got, want := dbFileSize(t, path), int64(4096+db.fdisk.NumPages()*(storage.PageSize+4)); got != want {
		t.Fatalf("file is %d bytes, want %d: the trim was not returned to the filesystem", got, want)
	}
	crash, err := Open(Config{Path: copyUnclosed(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	defer crash.Close()
	requireSameDocs(t, "crash copy after the trim", crash, db)
	assertPagesAccounted(t, crash)
}

// TestHeldPagesBringOnSyncPoints: a writer whose commits — item deletes
// here — spread over the whole database holds back sealed pages, each
// freed or copied away for the first time since the last sync point, far
// faster than the commit count or the log size bring on a sync point. The
// held-page trigger (storage.FileDisk.SealDue) brings it on instead: every
// commit that finds the trigger due is a sync point.
func TestHeldPagesBringOnSyncPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, items := xmarkItems(t, 200, Config{Path: path, BufferPoolBytes: 64 << 20})
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	syncs, peak := 0, 0.0
	for i := 0; i < 200; i++ {
		due := db.fdisk.SealDue()
		before := db.DeviceStats().Checkpoints
		if err := db.DeleteSubtree(items[i*7919%len(items)]); err != nil {
			t.Fatal(err)
		}
		synced := db.DeviceStats().Checkpoints > before
		if due && !synced {
			t.Fatalf("commit %d found the held-page trigger due and was not a sync point", i)
		}
		if synced {
			syncs++
		}
		sealed := float64(db.fdisk.Meta().NumPages)
		peak = max(peak, float64(db.fdisk.NumPages())/sealed)
	}
	// Neither the commit count (1,024) nor the log budget (64 MB) comes due
	// in 200 commits: every sync point here is the held-page trigger's.
	if syncs == 0 {
		t.Fatal("200 spread commits brought on no sync point: the held-page trigger never fired")
	}
	t.Logf("%d sync points in 200 commits; the file peaked at %.2f× the sealed page count", syncs, peak)
}

// TestSyncPointsUnderReaders: sync points run while queries pin the pages
// logged commits left dirty in the pool. Each must still write those
// pages, so a copy of the open files taken after the last one — and a
// Backup taken meanwhile — holds the live database.
func TestSyncPointsUnderReaders(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twig.db")
	db, items := xmarkItems(t, 4, Config{Path: path, BufferPoolBytes: 64 << 20})
	defer db.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pat := xpath.MustParse(`//item/listing/price`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pinnedIDs(db, pat, plan.RootPathsPlan); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		if err := db.InsertSubtree(items[i%len(items)], listing(i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			db.writeMu.Lock()
			err := db.commitCurrent()
			db.writeMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if n, _ := db.fdisk.LogSinceSync(); n != 0 {
		t.Fatalf("%d commits logged past the last sync point, want 0", n)
	}
	crash, err := Open(Config{Path: copyUnclosed(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	defer crash.Close()
	requireSameDocs(t, "crash copy", crash, db)
}

// TestWALBudgetSyncPointsUnderLoggedCommits: with a small WAL budget,
// concurrent writers' commits become sync points every few dozen commits,
// between runs of logged ones. A copy of the open files recovers the live
// database, and so does a reopen after Close.
func TestWALBudgetSyncPointsUnderLoggedCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twig.db")
	db, items := xmarkItems(t, 4, Config{Path: path, BufferPoolBytes: 64 << 20, CheckpointWALBytes: 4 << 10})
	before := db.DeviceStats()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if err := db.InsertSubtree(items[(w*150+i)%len(items)], listing(w*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.DeviceStats()
	if st.Checkpoints-before.Checkpoints < 5 || st.WALAppends-before.WALAppends < 300 {
		t.Fatalf("%d sync points, %d logged commits: the run did not interleave them",
			st.Checkpoints-before.Checkpoints, st.WALAppends-before.WALAppends)
	}
	crash, err := Open(Config{Path: copyUnclosed(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDocs(t, "crash copy", crash, db)
	if err := crash.Close(); err != nil {
		t.Fatal(err)
	}
	want := dumpDocs(db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDocs(re.Store()); got != want {
		t.Fatal("reopened documents diverge")
	}
}
