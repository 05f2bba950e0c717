package engine

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/xpath"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenDocs is the fixed corpus behind catalog_v1.golden: labels a and b
// recur at several depths, so ASR, JoinIndex and XRel register several
// paths and ASR/JoinIndex carry non-empty rooted-path and root-id sets.
var goldenDocs = []string{
	`<a x="v0"><b><c>v0</c><a><b><c>v1</c></b></a></b><d><b>v1</b></d></a>`,
	`<lib><book id="1"><title>T</title><author><name>N</name></author></book><book><title>U</title></book></lib>`,
}

var goldenQueries = []string{
	`/a/b/c`, `/a/b/a/b[c = 'v1']`, `/a[@x = 'v0']/d/b`, `/lib/book[title = 'T']/author/name`, `/lib/book/title`,
}

var goldenConfigs = []struct {
	name string
	opts index.PathsOptions
}{
	{"default", index.PathsOptions{}},
	{"raw-pathid", index.PathsOptions{RawIDs: true, PathIDKeys: true}},
}

func goldenDB(t testing.TB, opts index.PathsOptions) *DB {
	t.Helper()
	db := New(Config{BufferPoolBytes: 8 << 20, PathsOptions: opts})
	for _, doc := range goldenDocs {
		if err := db.LoadXML(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

const catalogGolden = "catalog_v1.golden"

// TestCatalogGolden pins the catalog's bytes: the encoding of a fixed
// corpus with all eight persisted structures built, under default options
// and under RawIDs+PathIDKeys, must equal the checked-in file, which was
// generated before each structure took over its own record codec. The blob
// must also survive decode → encode unchanged, and the decoded snapshot —
// reading the same pool — must answer the eight pinned strategies as the
// naive matcher does. Regenerate with -update only for a format bump.
func TestCatalogGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range goldenConfigs {
		db := goldenDB(t, cfg.opts)
		blob := encodeCatalog(db.CurrentSnapshot())
		got.WriteString(cfg.name + " " + hex.EncodeToString(blob) + "\n")

		re := &Snapshot{}
		if err := decodeCatalog(db, re, blob); err != nil {
			t.Fatalf("%s: decode: %v", cfg.name, err)
		}
		if again := encodeCatalog(re); !bytes.Equal(again, blob) {
			t.Errorf("%s: encode(decode(blob)) differs from blob (%d vs %d bytes)", cfg.name, len(again), len(blob))
		}
		for _, q := range goldenQueries {
			pat := xpath.MustParse(q)
			want := naive.Match(re.store, pat)
			for _, s := range diffStrategies {
				opts := ReadOpts{Strategy: s}
				res, err := db.run(re, pat, opts)
				if _, origErr := db.run(db.CurrentSnapshot(), pat, opts); origErr != nil {
					// SchemaPathId keys cannot serve the path strategies'
					// suffix probes; the decoded flags must say so too.
					if err == nil || err.Error() != origErr.Error() {
						t.Errorf("%s: %s via %v on the decoded snapshot: error %v, built snapshot's %v", cfg.name, q, s, err, origErr)
					}
				} else if err != nil {
					t.Errorf("%s: %s via %v on the decoded snapshot: %v", cfg.name, q, s, err)
				} else if !equalIDs(res.IDs, want) {
					t.Errorf("%s: %s via %v on the decoded snapshot: %v, naive %v", cfg.name, q, s, res.IDs, want)
				}
			}
		}
	}

	path := filepath.Join("testdata", catalogGolden)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("catalog encoding differs from %s: the on-disk format moved", path)
	}
}

// goldenBlobs returns the checked-in catalog encodings.
func goldenBlobs(t testing.TB) [][]byte {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", catalogGolden))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
		_, h, _ := strings.Cut(line, " ")
		blob, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// FuzzDecodeCatalog attacks the decoder of the one blob Open trusts the
// file for: whatever the bytes, decodeCatalog returns a snapshot (which
// then re-encodes) or an error matching index.ErrCorruptCatalog or
// errCatalogVersion — it never panics, and no count read from the input
// sizes an allocation before it is checked against the bytes left. Seeds:
// the golden blobs, plus the truncated and bit-flipped variants checked in
// under testdata/fuzz/FuzzDecodeCatalog.
func FuzzDecodeCatalog(f *testing.F) {
	for _, blob := range goldenBlobs(f) {
		f.Add(blob)
	}
	db := New(Config{BufferPoolBytes: 1 << 20})
	f.Fuzz(func(t *testing.T, blob []byte) {
		snap := &Snapshot{}
		if err := decodeCatalog(db, snap, blob); err != nil {
			if !errors.Is(err, index.ErrCorruptCatalog) && !errors.Is(err, errCatalogVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		encodeCatalog(snap)
	})
}
