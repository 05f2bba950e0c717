package storage

import (
	"bytes"
	"fmt"
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
// sealed pages; pages written among them (evictions) are not sealed and
// vanish in a crash; a seal covers the records and empties the log; a
// record out of sequence ends the log.
func TestFileDiskLogicalRecords(t *testing.T) {
	file, wal := &memFile{}, &memFile{}
	d, err := OpenFiles(file, wal)
	if err != nil {
		t.Fatal(err)
	}
	allocate(d, 2)
	d.Write(0, fillPage('a'))
	d.Write(1, fillPage('b'))
	seal(t, d)
	// Evictions between logged commits: copies of pages 0 and 1 that no
	// seal covers.
	d.Free(0)
	d.Write(allocate(d, 1), fillPage('x'))
	logged(t, d, "one")
	d.Free(1)
	d.Write(allocate(d, 1), fillPage('y'))
	logged(t, d, "two")
	if n, _ := d.LogSinceSync(); n != 2 {
		t.Fatalf("LogSinceSync = %d commits, want 2", n)
	}

	// Crash: reopen the same files.
	re, err := OpenFiles(file, wal)
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "crash", re, "one", "two")
	requirePage(t, "crash", re, 0, 'a')
	requirePage(t, "crash", re, 1, 'b')
	if st := re.DeviceStats(); st.RecoveredCommits != 2 || st.CommitsSinceSync != 2 || re.NumPages() != 2 {
		t.Fatalf("RecoveredCommits %d, CommitsSinceSync %d, %d pages; want 2, 2 and 2", st.RecoveredCommits, st.CommitsSinceSync, re.NumPages())
	}
	// The replay's own copies, then a seal covering the records.
	re.Free(0)
	c := allocate(re, 1)
	re.Write(c, fillPage('c'))
	seal(t, re)
	if n, size := re.LogSinceSync(); n != 0 || size != 0 {
		t.Fatalf("a seal left %d logged commits (%d bytes) in the log", n, size)
	}
	re2, err := OpenFiles(file, wal)
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "after a seal", re2)
	requirePage(t, "after a seal", re2, 1, 'b')
	requirePage(t, "after a seal", re2, c, 'c')
	if meta := re2.Meta(); re2.sealed != 4 || meta.FreeHead == InvalidPage {
		t.Fatalf("sealed %+v at sequence %d, want 4 (two seals, two records) and page 0 on the free list", meta, re2.sealed)
	}

	// A record numbered out of sequence ends the log.
	logged(t, re2, "three")
	end := re2.WALSize()
	if _, err := wal.WriteAt(appendWALLogical(nil, 9, []byte("stray")), end); err != nil {
		t.Fatal(err)
	}
	re3, err := OpenFiles(file, wal)
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "out of sequence", re3, "three")
	if re3.WALSize() != end {
		t.Fatalf("WAL %d bytes after recovery, want the %d before the stray record", re3.WALSize(), end)
	}
}

// TestFileDiskCheckpointReplacesLogAtomically crashes at every change to
// either file across two rounds of page writes, a logged commit and a
// seal — each page, record, trunk and superblock write, each fsync, the
// tail trim and the log truncation — with the writes since the last fsync
// dropped or torn at random. Every image recovers to the state before the
// round's seal (its logged record replayed once it was synced) or after
// it, never a mix: no moment leaves a log that lost a logged commit, a free
// list that lost a page, or a live page overwritten.
func TestFileDiskCheckpointReplacesLogAtomically(t *testing.T) {
	file, wal := NewCrashFile(nil), NewCrashFile(nil)
	d, err := OpenFiles(file, wal)
	if err != nil {
		t.Fatal(err)
	}
	type image struct {
		db, wal []byte
		round   int
		synced  bool // the round's record was durable
	}
	var images []image
	round, synced := 0, false
	capture := func() {
		seed := int64(len(images))
		images = append(images, image{file.Crash(seed), wal.Crash(seed + 1000), round, synced})
	}
	allocate(d, 6)
	for i := 0; i < 6; i++ {
		d.Write(PageID(i), fillPage('a'))
	}
	seal(t, d)
	// Each round replaces four pages copy-on-write with images of its
	// letter: the first seal's free list needs a trunk past the end (all
	// it lists is held), the second trims the first round's pages off.
	live := []PageID{0, 1, 2, 3}
	file.OnChange, wal.OnChange = capture, capture
	for round = 1; round <= 2; round++ {
		synced = false
		for i, id := range live {
			if err := d.Free(id); err != nil {
				t.Fatal(err)
			}
			live[i] = allocate(d, 1)
			d.Write(live[i], fillPage(byte('a'+round)))
		}
		logged(t, d, fmt.Sprint("round ", round))
		synced = true
		seal(t, d)
	}
	file.OnChange, wal.OnChange = nil, nil
	if d.NumPages() != 6 {
		t.Fatalf("%d pages after the second seal, want the first round's trimmed off", d.NumPages())
	}
	if len(images) < 20 {
		t.Fatalf("only %d crash points", len(images))
	}
	for i, img := range images {
		tag := fmt.Sprintf("crash %d (round %d)", i, img.round)
		re, err := OpenFiles(NewCrashFile(img.db), NewCrashFile(img.wal))
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		letter := byte('a' + img.round)
		switch seq := re.sealed; seq {
		case int64(2*img.round) - 1: // the seal before this round's
			letter--
			if log := re.TakeRecoveredLog(); len(log) != 1 && img.synced || len(log) > 1 ||
				len(log) == 1 && string(log[0]) != fmt.Sprint("round ", img.round) {
				t.Fatalf("%s: recovered log %q", tag, log)
			}
		case int64(2*img.round) + 1:
			requireLog(t, tag, re)
		default:
			t.Fatalf("%s: recovered sequence %d", tag, seq)
		}
		free := re.FreeList()
		if live := re.NumPages() - len(free); live != 6 {
			t.Fatalf("%s: %d pages, %d free: %d live, want 6", tag, re.NumPages(), len(free), live)
		}
		n := 0
		buf := make([]byte, PageSize)
		for id := PageID(0); int(id) < re.NumPages(); id++ {
			if slices.Contains(free, id) {
				continue
			}
			if err := re.Read(id, buf); err != nil || buf[0] != letter && buf[0] != 'a' {
				t.Fatalf("%s: live page %d reads %q (%v), want %q or 'a'", tag, id, buf[0], err, letter)
			}
			if buf[0] == letter {
				n++
			}
		}
		if letter != 'a' && n != 4 {
			t.Fatalf("%s: %d live pages read %q, want 4", tag, n, letter)
		}
		re.Close()
	}
}
