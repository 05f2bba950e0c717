package twigdb_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	twigdb "repro"
	"repro/internal/storage"
)

const persistDoc = `
<shelf>
 <book><title>XML</title><year>2000</year>
  <author><fn>jane</fn><ln>doe</ln></author></book>
 <book><title>Databases</title><year>1999</year>
  <author><fn>john</fn><ln>roe</ln></author></book>
</shelf>`

// TestOptionsPathRoundTrip drives the public persistence API: build into
// a file, close, reopen, query without rebuilding, update durably, and
// observe the storage counters.
func TestOptionsPathRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "books.twigdb")

	db, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`//book[author/fn='jane']/title`,
		`/shelf/book/year`,
		`//author[ln='roe']`,
	}
	strategies := []twigdb.Strategy{
		twigdb.StrategyRootPaths, twigdb.StrategyDataPaths, twigdb.StrategyEdge,
		twigdb.StrategyDataGuideEdge, twigdb.StrategyFabricEdge,
		twigdb.StrategyASR, twigdb.StrategyJoinIndex, twigdb.StrategyXRel,
	}
	want := map[string][]int64{}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.IDs
	}
	if st := db.StorageStats(); st.Checkpoints == 0 || st.BytesWritten == 0 {
		t.Fatalf("durable build left no storage trace: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, q := range queries {
		for _, s := range strategies {
			res, err := re.QueryWith(s, q)
			if err != nil {
				t.Fatalf("%s via %v after reopen: %v", q, s, err)
			}
			if !reflect.DeepEqual(res.IDs, want[q]) {
				t.Fatalf("%s via %v after reopen: got %v want %v", q, s, res.IDs, want[q])
			}
		}
	}
	// Zero rebuild work: nothing was written while only querying.
	if st := re.StorageStats(); st.Writes != 0 {
		t.Fatalf("reopen+query performed %d page writes", st.Writes)
	}

	// A durable insert, checkpointed, survives another reopen.
	shelfRes, err := re.Query(`/shelf`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Insert(shelfRes.IDs[0], `<book><title>Recovery</title></book>`); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := re.StorageStats(); st.WALBytes != 0 || st.Checkpoints == 0 {
		t.Fatalf("checkpoint did not truncate the WAL: %+v", st)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	third, err := twigdb.Open(&twigdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	res, err := third.Query(`//book[title='Recovery']`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("durable insert lost across reopen: %v", res.IDs)
	}
}

// TestInMemoryCloseCheckpoints: an in-memory database runs the same
// device as a file-backed one, so Checkpoint and Close do real work and
// succeed, leaving the WAL empty; a second Close — `defer db.Close()`
// after an explicit one — reports the closed files instead of panicking.
func TestInMemoryCloseCheckpoints(t *testing.T) {
	db := twigdb.MustOpen(nil)
	defer db.Close()
	if err := db.LoadXMLString(persistDoc); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.WALBytes != 0 || st.Checkpoints == 0 {
		t.Fatalf("in-memory Checkpoint left WALBytes=%d Checkpoints=%d", st.WALBytes, st.Checkpoints)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.WALBytes != 0 {
		t.Fatalf("in-memory Close left %d WAL bytes", st.WALBytes)
	}
	if err := db.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("second Close: got %v, want fs.ErrClosed", err)
	}
}

// TestOpenRefusesOldFormat: a file whose superblocks are stamped with
// storage version 2 (their checksums re-sealed), or whose catalog is stamped
// with version 2 (sealed under a new superblock, so the refusal comes after
// recovery), is refused with ErrFormatVersion, and the refused open leaves
// the file and its WAL byte for byte as they were.
func TestOpenRefusesOldFormat(t *testing.T) {
	for name, restamp := range map[string]func(t *testing.T, path string){
		"storage v2": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Each superblock slot (at 0 and 2048): magic, version u32 at
			// 8, ..., CRC32-IEEE of the slot's bytes 0..35 at 36.
			for _, sb := range [][]byte{raw[:40], raw[2048:2088]} {
				binary.BigEndian.PutUint32(sb[8:], 2)
				binary.BigEndian.PutUint32(sb[36:], crc32.ChecksumIEEE(sb[:36]))
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"catalog v2": func(t *testing.T, path string) {
			fd, err := storage.OpenFileDisk(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fd.Close()
			root, buf := fd.Meta().CatalogRoot, make([]byte, storage.PageSize)
			if err := fd.Read(root, buf); err != nil {
				t.Fatal(err)
			}
			// Catalog page: [4B next][2B length], then "TWIGCAT1" and the
			// version, sealed copy-on-write as the new catalog root.
			buf[6+len("TWIGCAT1")] = 2
			restamped := fd.Allocate()
			if err := errors.Join(fd.Write(restamped, buf), fd.Free(root), fd.Seal(restamped, nil)); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.twigdb")
			db := twigdb.MustOpen(&twigdb.Options{Path: path})
			if err := db.LoadXMLString(persistDoc); err != nil {
				t.Fatal(err)
			}
			if err := db.BuildAll(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			restamp(t, path)
			file, _ := os.ReadFile(path)
			wal, _ := os.ReadFile(path + storage.WALSuffix)
			if _, err := twigdb.Open(&twigdb.Options{Path: path}); !errors.Is(err, twigdb.ErrFormatVersion) {
				t.Fatalf("open: got %v, want ErrFormatVersion", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, file) {
				t.Fatal("the refused open changed the file")
			}
			if got, _ := os.ReadFile(path + storage.WALSuffix); !bytes.Equal(got, wal) {
				t.Fatal("the refused open changed the WAL")
			}
		})
	}
}
