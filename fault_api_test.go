package twigdb_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	twigdb "repro"
	"repro/internal/datagen"
	"repro/internal/xmldb"
)

// TestFaultInjectionAPI drives fault injection end to end through the
// public surface: Options.FaultInjection configures a one-shot fsync
// failure, the failed insert poisons the database into degraded read-only
// mode, Health and StorageStats report it, queries keep answering from the
// published snapshot, and a fault-free reopen recovers a writable database.
func TestFaultInjectionAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "books.twigdb")
	db, err := twigdb.Open(&twigdb.Options{
		Path: path,
		FaultInjection: &twigdb.FaultInjection{
			Seed:  42,
			Armed: false, // setup runs un-faulted
			Specs: []twigdb.FaultSpec{{Kind: twigdb.FaultFsyncError}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.ReadOnly || h.Poisoned {
		t.Fatalf("healthy database reports %+v", h)
	}
	shelf, err := db.Query(`/shelf`)
	if err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(`/shelf/book/title`)
	if err != nil {
		t.Fatal(err)
	}

	db.SetFaultsArmed(true)
	_, insErr := db.Insert(shelf.IDs[0], `<book><title>Doomed</title></book>`)
	if !errors.Is(insErr, twigdb.ErrPoisoned) || !errors.Is(insErr, twigdb.ErrInjected) {
		t.Fatalf("insert with failed fsync: got %v, want ErrPoisoned wrapping ErrInjected", insErr)
	}

	h := db.Health()
	if !h.ReadOnly || !h.Poisoned || h.Cause == "" {
		t.Fatalf("database not degraded after fsync failure: %+v", h)
	}
	if h.InjectedFaults == 0 {
		t.Fatalf("Health.InjectedFaults = 0 after an injected fault")
	}
	if st := db.StorageStats(); !st.Poisoned || st.InjectedFaults == 0 {
		t.Fatalf("StorageStats missing fault counters: %+v", st)
	}
	if fs := db.FaultStats(); fs.Total == 0 || fs.Counts[twigdb.FaultFsyncError] != 1 {
		t.Fatalf("FaultStats = %+v", fs)
	}

	// Writers are rejected with the typed error; the wrapped chain carries
	// the cause.
	if _, err := db.Insert(shelf.IDs[0], `<book/>`); !errors.Is(err, twigdb.ErrReadOnly) {
		t.Fatalf("insert on degraded db: got %v, want ErrReadOnly", err)
	}
	if err := db.Delete(before.IDs[0]); !errors.Is(err, twigdb.ErrReadOnly) {
		t.Fatalf("delete on degraded db: got %v, want ErrReadOnly", err)
	}
	if err := db.Build(twigdb.Edge); !errors.Is(err, twigdb.ErrReadOnly) {
		t.Fatalf("build on degraded db: got %v, want ErrReadOnly", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, twigdb.ErrReadOnly) {
		t.Fatalf("checkpoint on degraded db: got %v, want ErrReadOnly", err)
	}

	// Reads keep being served — the published snapshot includes the
	// poisoned commit (it was applied, just never made durable).
	after, err := db.Query(`/shelf/book/title`)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if len(after.IDs) != len(before.IDs)+1 {
		t.Fatalf("degraded snapshot lost the published insert: %v", after.IDs)
	}
	doomed, err := db.QueryWith(twigdb.StrategyDataPaths, `//book[title='Doomed']`)
	if err != nil || len(doomed.IDs) != 1 {
		t.Fatalf("degraded indexed query: ids=%v err=%v", doomed.IDs, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fault-free reopen: healthy, consistent, writable.
	re, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if h := re.Health(); h.ReadOnly || h.Poisoned {
		t.Fatalf("poison survived reopen: %+v", h)
	}
	titles, err := re.Query(`/shelf/book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(titles.IDs); n != len(before.IDs) && n != len(before.IDs)+1 {
		t.Fatalf("recovered to %d titles, want a commit boundary (%d or %d)",
			n, len(before.IDs), len(before.IDs)+1)
	}
	if _, err := re.Insert(shelf.IDs[0], `<book><title>Alive</title></book>`); err != nil {
		t.Fatalf("recovered database not writable: %v", err)
	}
}

// TestFaultInjectionTransient: a one-shot bit flip on the read path is
// detected by the page checksum and healed by the transparent retry —
// queries succeed, and the counters surface exactly one failure and one
// retry.
func TestFaultInjectionTransient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "books.twigdb")
	db, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths); err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryWith(twigdb.StrategyRootPaths, `//author/fn`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold: the first query must fetch index pages from the file,
	// so the armed one-shot flip lands on a real device read.
	re, err := twigdb.Open(&twigdb.Options{
		Path: path,
		FaultInjection: &twigdb.FaultInjection{
			Seed:  7,
			Armed: false, // recovery and catalog restore run un-faulted
			Specs: []twigdb.FaultSpec{{Kind: twigdb.FaultBitFlip}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.SetFaultsArmed(true)
	got, err := re.QueryWith(twigdb.StrategyRootPaths, `//author/fn`)
	if err != nil {
		t.Fatalf("query under transient flip: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("transient flip changed answers: got %v want %v", got.IDs, want.IDs)
	}
	st := re.StorageStats()
	if st.InjectedFaults == 0 {
		t.Fatal("flip never reached the device despite a cold pool")
	}
	if st.ChecksumFailures != 1 || st.ChecksumRetries != 1 {
		t.Fatalf("failures=%d retries=%d, want 1/1", st.ChecksumFailures, st.ChecksumRetries)
	}
	if h := re.Health(); h.ReadOnly {
		t.Fatalf("transient flip degraded the database: %+v", h)
	}
}

// TestFaultInjectionLatency drives the engine's one latency injector — the
// FaultLatency rule — through the public API: the recipe for a
// disk-resident regime (docs/CONCURRENCY.md). A file-backed database is
// built un-faulted behind a pool far smaller than its indices, then every
// device read is made to stall; a cold query must still answer correctly,
// must take at least one stall per device read it caused, and the stalls
// must show in Health.
func TestFaultInjectionLatency(t *testing.T) {
	const (
		stall = 2 * time.Millisecond
		pool  = 64 << 10 // 8 pages
	)
	var doc bytes.Buffer
	if err := xmldb.WriteXML(&doc, datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 10}).Root); err != nil {
		t.Fatal(err)
	}
	db, err := twigdb.Open(&twigdb.Options{
		Path:            filepath.Join(t.TempDir(), "xmark.twigdb"),
		BufferPoolBytes: pool,
		FaultInjection: &twigdb.FaultInjection{
			Seed:  1,
			Armed: false, // load and build at device speed
			Specs: []twigdb.FaultSpec{{Kind: twigdb.FaultLatency, Prob: 1, Latency: stall}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadXML(&doc); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // reads now come from the file, not the WAL
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.FileBytes <= pool {
		t.Fatalf("file of %d bytes fits the %d-byte pool; the query would not be cold", st.FileBytes, pool)
	}
	const q = `/site//item[quantity='3']/name`
	want, err := db.QueryWith(twigdb.Oracle, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.IDs) == 0 {
		t.Fatalf("%s matches nothing; pick a query with an answer", q)
	}

	readsBefore, faultsBefore := db.StorageStats().Reads, db.Health().InjectedFaults
	db.SetFaultsArmed(true)
	start := time.Now()
	got, err := db.QueryWith(twigdb.StrategyRootPaths, q)
	elapsed := time.Since(start)
	db.SetFaultsArmed(false)
	if err != nil {
		t.Fatalf("query under injected latency: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("latency changed answers: got %v want %v", got.IDs, want.IDs)
	}
	reads := db.StorageStats().Reads - readsBefore
	if reads == 0 {
		t.Fatal("query caused no device read despite a pool smaller than the data")
	}
	// QueryWith is serial and every counted read slept first, so this is a
	// true lower bound: time.Sleep never returns early.
	if floor := time.Duration(reads) * stall; elapsed < floor {
		t.Fatalf("%d device reads took %v, want >= %v", reads, elapsed, floor)
	}
	if fired := db.Health().InjectedFaults - faultsBefore; fired < reads {
		t.Fatalf("Health.InjectedFaults moved by %d for %d stalled reads", fired, reads)
	}
}
