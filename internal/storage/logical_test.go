package storage

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"
)

// requireLog fails unless d recovered exactly the logical payloads want.
func requireLog(t *testing.T, tag string, d *FileDisk, want ...string) {
	t.Helper()
	var got []string
	for _, p := range d.TakeRecoveredLog() {
		got = append(got, string(p))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: recovered log %q, want %q", tag, got, want)
	}
}

// requirePage fails unless page id of d reads as a page filled with b.
func requirePage(t *testing.T, tag string, d *FileDisk, id PageID, b byte) {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := d.Read(id, buf); err != nil {
		t.Fatalf("%s: read of page %d: %v", tag, id, err)
	}
	if !bytes.Equal(buf, fillPage(b)) {
		t.Fatalf("%s: page %d reads %q-fill, want %q", tag, id, buf[0], b)
	}
}

// TestFileDiskLogicalRecords: logical records recover in order over the
// page state of the last commit record; frames appended among them are
// uncommitted, and stay so even when a later commit record follows them
// (its floor excludes them); a checkpoint carries the records into the
// replaced log; Compact refuses while records follow the last commit
// record; and a record out of sequence ends the log.
func TestFileDiskLogicalRecords(t *testing.T) {
	file, wal := &memFile{}, &memFile{}
	d, err := openFileDisk(file, wal, "")
	if err != nil {
		t.Fatal(err)
	}
	allocate(d, 3)
	meta := Meta{NumPages: 3, CatalogRoot: InvalidPage, FreeHead: InvalidPage}
	d.Write(0, fillPage('a'))
	d.Write(1, fillPage('b'))
	if err := d.Commit(meta); err != nil {
		t.Fatal(err)
	}
	// Evictions between logged commits: frames no commit record covers.
	d.Write(0, fillPage('x'))
	if _, err := d.CommitLogical([]byte("one")); err != nil {
		t.Fatal(err)
	}
	d.Write(1, fillPage('y'))
	seq, err := d.CommitLogical([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SyncTo(seq); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.LogSinceSync(); n != 2 {
		t.Fatalf("LogSinceSync = %d commits, want 2", n)
	}
	if trimmed, err := d.Compact(); trimmed != 0 || err != nil {
		t.Fatalf("Compact with logged commits: trimmed %d, err %v; want 0, nil", trimmed, err)
	}

	// Crash: reopen the same files.
	re, err := openFileDisk(file, wal, "")
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "crash", re, "one", "two")
	requirePage(t, "crash", re, 0, 'a')
	requirePage(t, "crash", re, 1, 'b')
	if st := re.DeviceStats(); st.RecoveredCommits != 3 || st.CommitsSinceSync != 2 {
		t.Fatalf("RecoveredCommits %d, CommitsSinceSync %d; want 3 and 2", st.RecoveredCommits, st.CommitsSinceSync)
	}
	// A commit record that rewrites neither page must not commit the
	// discarded frames that lie below it.
	re.Write(2, fillPage('c'))
	if err := re.Commit(meta); err != nil {
		t.Fatal(err)
	}
	if n, _ := re.LogSinceSync(); n != 0 {
		t.Fatalf("a commit record left %d logged commits uncovered", n)
	}
	re2, err := openFileDisk(file, wal, "")
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "after a commit record", re2)
	requirePage(t, "after a commit record", re2, 0, 'a')
	requirePage(t, "after a commit record", re2, 1, 'b')
	requirePage(t, "after a commit record", re2, 2, 'c')

	// A checkpoint keeps the records no commit record covers, and the
	// frames of the open transaction, which recovery discards.
	re2.CommitLogical([]byte("three"))
	re2.Write(0, fillPage('p'))
	re2.CommitLogical([]byte("four"))
	if err := re2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePage(t, "checkpointed", re2, 0, 'p')
	re3, err := openFileDisk(file, wal, "")
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "after a checkpoint", re3, "three", "four")
	requirePage(t, "after a checkpoint", re3, 0, 'a')
	requirePage(t, "after a checkpoint", re3, 2, 'c')

	// A record numbered out of sequence ends the log.
	end := re3.WALSize()
	if _, err := wal.WriteAt(appendWALLogical(nil, 9, []byte("stray")), end); err != nil {
		t.Fatal(err)
	}
	re4, err := openFileDisk(file, wal, "")
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "out of sequence", re4, "three", "four")
	if re4.WALSize() != end {
		t.Fatalf("WAL %d bytes after recovery, want the %d before the stray record", re4.WALSize(), end)
	}
}

// TestFileDiskCheckpointReplacesLogAtomically: on disk the checkpoint's
// new log is a sibling file renamed over the old one, so no moment leaves a
// log that lost a logged commit, and no sibling file outlives it.
func TestFileDiskCheckpointReplacesLogAtomically(t *testing.T) {
	path := tmpDB(t)
	f := mustOpenFD(t, path)
	allocate(f, 1)
	f.Write(0, fillPage('a'))
	if err := f.Commit(Meta{NumPages: 1, CatalogRoot: InvalidPage, FreeHead: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CommitLogical([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	type image struct{ db, wal []byte }
	var images []image
	f.SetCheckpointHook(func(CheckpointStage) {
		db, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(path + WALSuffix)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, image{db, w})
	})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := os.Stat(path + WALSuffix + ".next"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the checkpoint left its sibling log behind: %v", err)
	}
	for _, img := range images {
		cp := tmpDB(t)
		if err := os.WriteFile(cp, img.db, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp+WALSuffix, img.wal, 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpenFD(t, cp)
		requireLog(t, "stage capture", re, "kept")
		requirePage(t, "stage capture", re, 0, 'a')
		re.Close()
	}
}
