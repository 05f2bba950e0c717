package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/storage"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenDocs is the fixed corpus behind catalog_v6.golden: labels a and b
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

// goldenDB loads goldenDocs and builds the whole persisted family, in
// memory when path is empty and file-backed (so with a node table) at path
// otherwise.
func goldenDB(t testing.TB, opts index.PathsOptions, path string) *DB {
	t.Helper()
	db, err := Open(Config{BufferPoolBytes: 8 << 20, PathsOptions: opts, Path: path})
	if err != nil {
		t.Fatal(err)
	}
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

const catalogGolden = "catalog_v6.golden"

// dumpDocs renders every document of store in order.
func dumpDocs(store *xmldb.Store) string {
	var b strings.Builder
	for _, d := range store.Docs {
		b.WriteString(xmldb.Dump(d.Root))
	}
	return b.String()
}

// checkDecoded checks a snapshot decoded from a golden blob against the
// database that built it: the same documents, and the eight pinned
// strategies — reading the same pool — answering as the naive matcher does.
func checkDecoded(t *testing.T, tag string, db *DB, re *Snapshot) {
	t.Helper()
	store, err := db.storeOf(re)
	if err != nil {
		t.Fatalf("%s: loading the decoded store: %v", tag, err)
	}
	if got, want := dumpDocs(store), dumpDocs(db.CurrentSnapshot().store); got != want {
		t.Errorf("%s: decoded store differs\ngot:\n%s\nwant:\n%s", tag, got, want)
	}
	for _, q := range goldenQueries {
		pat := xpath.MustParse(q)
		want := naive.Match(store, pat)
		for _, s := range diffStrategies {
			opts := ReadOpts{Strategy: s}
			res, err := db.run(re, pat, opts)
			if _, origErr := db.run(db.CurrentSnapshot(), pat, opts); origErr != nil {
				// SchemaPathId keys cannot serve the path strategies'
				// suffix probes; the decoded flags must say so too.
				if err == nil || err.Error() != origErr.Error() {
					t.Errorf("%s: %s via %v on the decoded snapshot: error %v, built snapshot's %v", tag, q, s, err, origErr)
				}
			} else if err != nil {
				t.Errorf("%s: %s via %v on the decoded snapshot: %v", tag, q, s, err)
			} else if !equalIDs(res.IDs, want) {
				t.Errorf("%s: %s via %v on the decoded snapshot: %v, naive %v", tag, q, s, res.IDs, want)
			}
		}
	}
}

// TestCatalogGolden pins the catalog's bytes: the encoding of a fixed
// corpus with all eight persisted structures built on a file-backed
// database, under default options and under RawIDs+PathIDKeys, must equal
// catalog_v6.golden. The blob must also survive decode → encode unchanged,
// and the decoded snapshot — its store read back from the node table —
// must hold the same documents and answer the eight pinned strategies as
// the naive matcher does. Regenerate with -update only for a format bump.
func TestCatalogGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range goldenConfigs {
		db := goldenDB(t, cfg.opts, filepath.Join(t.TempDir(), "golden.db"))
		defer db.Close()
		blob := encodeCatalog(db, db.CurrentSnapshot())
		got.WriteString(cfg.name + " " + hex.EncodeToString(blob) + "\n")

		re := &Snapshot{}
		if err := decodeCatalog(db, re, blob); err != nil {
			t.Fatalf("%s: decode: %v", cfg.name, err)
		}
		if again := encodeCatalog(db, re); !bytes.Equal(again, blob) {
			t.Errorf("%s: encode(decode(blob)) differs from blob (%d vs %d bytes)", cfg.name, len(again), len(blob))
		}
		checkDecoded(t, cfg.name, db, re)
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

// TestCatalogRejectsOtherVersions: a catalog blob of any version but
// catalogVersion is refused with storage.ErrFormatVersion — the golden
// blob restamped as version 1 (which carried the documents in the blob),
// as version 2 (whose Edge record had a backward link tree), as version 3
// (which could hold a HeadId-pruned DATAPATHS it did not mark), as version
// 4 (whose maintained path indices kept duplicate keys newest first), as
// version 5 (whose trees could hold key-only separators inside a run) and
// as version 7.
func TestCatalogRejectsOtherVersions(t *testing.T) {
	db := goldenDB(t, index.PathsOptions{}, filepath.Join(t.TempDir(), "versions.db"))
	defer db.Close()
	blob := encodeCatalog(db, db.CurrentSnapshot())
	for _, v := range []byte{1, 2, 3, 4, 5, 7} {
		stamped := bytes.Clone(blob)
		stamped[len(catalogMagic)] = v
		if err := decodeCatalog(db, &Snapshot{}, stamped); !errors.Is(err, storage.ErrFormatVersion) {
			t.Errorf("catalog version %d: got %v, want ErrFormatVersion", v, err)
		}
	}
}

// TestEveryPersistedKindRoundTrips: every persisted kind survives encode →
// decode, and the present mask — a uvarint — keeps a bit past the eighth
// kind.
func TestEveryPersistedKindRoundTrips(t *testing.T) {
	db := goldenDB(t, index.PathsOptions{}, filepath.Join(t.TempDir(), "kinds.db"))
	defer db.Close()
	re := &Snapshot{}
	if err := decodeCatalog(db, re, encodeCatalog(db, db.CurrentSnapshot())); err != nil {
		t.Fatal(err)
	}
	got := map[index.Kind]bool{}
	for _, st := range re.env.Structures() {
		got[st.Kind()] = true
	}
	for _, k := range index.PersistedKinds() {
		if !got[k] {
			t.Errorf("%v did not survive the catalog round trip", k)
		}
	}
	mask := presentMask(db.CurrentSnapshot().env.Structures()) | 1<<index.NumKinds
	w := &index.CatWriter{}
	w.Uvarint(mask)
	if back := index.NewCatReader(w.Buf).Uvarint(); back != mask {
		t.Fatalf("present mask %#x read back as %#x", mask, back)
	}
}

// goldenBlobs returns the catalog encodings checked in as name.
func goldenBlobs(t testing.TB, name string) [][]byte {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
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
// storage.ErrFormatVersion — the latter always for a blob whose version is
// not catalogVersion. It never panics, and no count read from the input
// sizes an allocation before it is checked against the bytes left. The
// blobs are decoded against a file-backed database built from the golden
// corpus, so a blob's node table and index roots name real pages. Seeds:
// the golden blobs, then the same blobs restamped as version 1 (refused),
// plus the truncated and bit-flipped variants checked in under
// testdata/fuzz/FuzzDecodeCatalog: those of versions 1 to 5 are refused
// too. Each v2-* file has a v3-* twin, the same edit of the version-3
// golden blob, v3-restamped-version-2 is version-2 restamped, and each
// v4-* file — the v3-* edits of the version-4 golden blob — has a v5-*
// twin restamped as version 5 and a v6-* twin restamped as version 6 that
// still reaches the decoder past the version check.
func FuzzDecodeCatalog(f *testing.F) {
	blobs := goldenBlobs(f, catalogGolden)
	for _, blob := range blobs {
		f.Add(blob)
	}
	for _, blob := range blobs {
		v1 := bytes.Clone(blob)
		v1[len(catalogMagic)] = 1
		f.Add(v1)
	}
	db := goldenDB(f, index.PathsOptions{}, filepath.Join(f.TempDir(), "fuzz.db"))
	f.Cleanup(func() { db.Close() })
	f.Fuzz(func(t *testing.T, blob []byte) {
		snap := &Snapshot{}
		err := decodeCatalog(db, snap, blob)
		if bytes.HasPrefix(blob, []byte(catalogMagic)) {
			if v, n := binary.Uvarint(blob[len(catalogMagic):]); n > 0 && v != catalogVersion && !errors.Is(err, storage.ErrFormatVersion) {
				t.Fatalf("catalog version %d: got %v, want ErrFormatVersion", v, err)
			}
		}
		if err != nil {
			if !errors.Is(err, index.ErrCorruptCatalog) && !errors.Is(err, storage.ErrFormatVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if snap.env.Nodes != nil {
			encodeCatalog(db, snap)
		}
	})
}
