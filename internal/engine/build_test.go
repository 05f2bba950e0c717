package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// buildCorpus is the fixed corpus of the build tests: a deep XMark
// document and a shallow DBLP one, large enough that the prepares of the
// index family overlap when they run concurrently.
func buildCorpus() []*xmldb.Document {
	return []*xmldb.Document{
		datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 10, Seed: 1}),
		datagen.DBLP(datagen.DBLPConfig{Papers: 300, Seed: 2}),
	}
}

var buildGoldenCases = []struct {
	name  string
	opts  index.PathsOptions
	kinds []index.Kind
}{
	{"all/default", index.PathsOptions{}, allKinds},
	{"all/raw-pathid", index.PathsOptions{RawIDs: true, PathIDKeys: true}, allKinds},
	{"paths/default", index.PathsOptions{}, []index.Kind{index.KindRootPaths, index.KindDataPaths}},
	{"paths/raw-pathid", index.PathsOptions{RawIDs: true, PathIDKeys: true}, []index.Kind{index.KindRootPaths, index.KindDataPaths}},
}

const buildGolden = "build_file.golden"

// buildFileHash loads buildCorpus into a new file-backed database, builds
// kinds and returns the sha256 of the file the build's sync point sealed.
func buildFileHash(t *testing.T, opts index.PathsOptions, kinds []index.Kind) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twig.db")
	db, err := Open(Config{Path: path, BufferPoolBytes: 8 << 20, PathsOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, doc := range buildCorpus() {
		if err := db.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(kinds...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestBuildFileGolden pins the bytes Build writes: the sealed file of each
// case hashes to the golden, which was generated by a serial build, and
// the hash repeats build after build at every GOMAXPROCS — however the
// concurrent prepares interleave, every page id, dictionary id and path id
// is the one the serial build gave.
func TestBuildFileGolden(t *testing.T) {
	golden := filepath.Join("testdata", buildGolden)
	if *update {
		var b strings.Builder
		for _, c := range buildGoldenCases {
			fmt.Fprintf(&b, "%s %s\n", c.name, buildFileHash(t, c.opts, c.kinds))
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	repeats := 5
	if raceEnabled || testing.Short() {
		repeats = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range buildGoldenCases {
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < repeats; i++ {
				if got := buildFileHash(t, c.opts, c.kinds); got != want[c.name] {
					t.Fatalf("%s at GOMAXPROCS %d, build %d: sha256 %s, golden %s", c.name, procs, i, got, want[c.name])
				}
			}
		}
	}
}

// TestFailedBuildLeaksNoPage fails the family's build with one write error
// at several points, on a pool small enough that the build writes pages
// while it runs. Every page the failed build took goes back to the free
// list: the pages are accounted for right after the failure, and again
// after a close, a reopen and a successful rebuild.
func TestFailedBuildLeaksNoPage(t *testing.T) {
	for _, after := range []int{5, 40, 150} {
		t.Run(fmt.Sprint("after=", after), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "twig.db")
			inj := storage.NewFaultInjector(1, storage.FaultSpec{Kind: storage.FaultWriteErr, After: after})
			inj.Disarm()
			db, err := Open(Config{Path: path, BufferPoolBytes: 256 << 10, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range buildCorpus() {
				if err := db.AddDocument(doc); err != nil {
					t.Fatal(err)
				}
			}
			db.SetFaultsArmed(true)
			if err := db.Build(allKinds...); err == nil {
				t.Fatal("build under a write fault: want an error")
			}
			assertPagesAccounted(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(Config{Path: path, BufferPoolBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := re.Build(allKinds...); err != nil {
				t.Fatal(err)
			}
			assertPagesAccounted(t, re)
		})
	}
}

// BenchmarkBuildAll builds the whole family over the twig-hot benchmark
// workload's corpus (XMark 80 items per region, DBLP 3,000 papers) in
// memory, reporting the allocation, the collections and the peak of the
// heap in use (sampled every millisecond) of one build.
func BenchmarkBuildAll(b *testing.B) {
	benchmarkBuild(b, func() []*xmldb.Document {
		return []*xmldb.Document{
			datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 80, Seed: 1000004}),
			datagen.DBLP(datagen.DBLPConfig{Papers: 3000, Seed: 1000005}),
		}
	}, index.PersistedKinds()...)
}

// BenchmarkBuildPaths builds ROOTPATHS and DATAPATHS over the twig-cold
// benchmark workload's corpus (XMark 320 items per region) in memory —
// the set-up of three of the four workloads, whose DATAPATHS prepare is
// its critical path — reporting what BenchmarkBuildAll does.
func BenchmarkBuildPaths(b *testing.B) {
	benchmarkBuild(b, func() []*xmldb.Document {
		return []*xmldb.Document{datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 320, Seed: 1000004})}
	}, index.KindRootPaths, index.KindDataPaths)
}

// benchmarkBuild times Build of kinds over a new in-memory database
// holding corpus's documents, reporting the allocation, the collections
// and the peak of the heap in use (sampled every millisecond) of one
// build.
func benchmarkBuild(b *testing.B, corpus func() []*xmldb.Document, kinds ...index.Kind) {
	b.ReportAllocs()
	var gcs uint32
	var peak uint64
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := New(Config{})
		for _, doc := range corpus() {
			if err := db.AddDocument(doc); err != nil {
				b.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		done := make(chan struct{})
		sampled := make(chan uint64)
		go func() {
			var most uint64
			for tick := time.NewTicker(time.Millisecond); ; {
				metrics.Read(sample)
				most = max(most, sample[0].Value.Uint64())
				select {
				case <-done:
					tick.Stop()
					sampled <- most
					return
				case <-tick.C:
				}
			}
		}()
		b.StartTimer()
		if err := db.Build(kinds...); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		close(done)
		peak = max(peak, <-sampled)
		runtime.ReadMemStats(&after)
		gcs += after.NumGC - before.NumGC
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(gcs)/float64(b.N), "GCs/op")
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}
