//go:build unix

package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/xpath"
)

// TestBackupRefusesLockedDestination: a backup onto a file an open
// database holds — the source's own, or another database's — fails with
// storage.ErrLocked before it writes a byte, and both databases close,
// reopen and answer as before.
func TestBackupRefusesLockedDestination(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(57))
	paths := []string{filepath.Join(dir, "a.db"), filepath.Join(dir, "b.db")}
	dbs := make([]*DB, len(paths))
	for i, path := range paths {
		db, err := Open(Config{Path: path, BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		db.AddDocument(genDoc(rng, 60))
		if err := db.Build(allKinds...); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	var pats []*xpath.Pattern
	for i := 0; i < 4; i++ {
		pats = append(pats, xpath.MustParse(genQueryFor(rng, dbs[0].Store().Docs[0])))
	}
	answers := func(db *DB) [][]int64 {
		t.Helper()
		var out [][]int64
		for _, pat := range pats {
			ids, err := pinnedIDs(db, pat, diffStrategies[0])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ids)
		}
		return out
	}
	want := [][][]int64{answers(dbs[0]), answers(dbs[1])}

	for _, dst := range paths {
		before, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := dbs[0].Backup(dst); !errors.Is(err, storage.ErrLocked) {
			t.Fatalf("backup onto %s: got %v, want ErrLocked", filepath.Base(dst), err)
		}
		if after, err := os.ReadFile(dst); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("refused backup changed %s (read err %v)", filepath.Base(dst), err)
		}
	}

	for i, db := range dbs {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Config{Path: paths[i], BufferPoolBytes: 1 << 20})
		if err != nil {
			t.Fatalf("reopen %s: %v", filepath.Base(paths[i]), err)
		}
		for j, got := range answers(re) {
			if !equalIDs(got, want[i][j]) {
				t.Fatalf("%s %v after reopen: got %v, want %v", filepath.Base(paths[i]), pats[j], got, want[i][j])
			}
		}
		assertPagesAccounted(t, re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
