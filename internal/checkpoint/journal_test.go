package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalRoundTrip pins the exported Journal container end to end:
// create, append, resume with an accept callback, and the clean-journal
// bookkeeping (Resumed, TornBytes, Path).
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Resumed() {
		t.Fatal("fresh journal reports Resumed")
	}
	if j.Path() != path {
		t.Fatalf("Path = %q, want %q", j.Path(), path)
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil { // no-op after close
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after close: %v, want closed error", err)
	}

	var got [][]byte
	j2, err := ResumeJournal(path, func(p []byte) bool {
		got = append(got, append([]byte(nil), p...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Resumed() {
		t.Fatal("resumed journal does not report Resumed")
	}
	if j2.TornBytes() != 0 {
		t.Fatalf("clean journal reports %d torn bytes", j2.TornBytes())
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestJournalResumeTruncatesTornTail appends garbage after valid frames and
// requires resume to drop exactly the garbage, keep the prefix, and leave
// the file clean for a second resume.
func TestJournalResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("UCP1 imposter header then trash")
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got [][]byte
	j2, err := ResumeJournal(path, func(p []byte) bool {
		got = append(got, append([]byte(nil), p...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if j2.TornBytes() != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", j2.TornBytes(), len(torn))
	}
	if len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("replayed %q, want only \"kept\"", got)
	}
	// The tail is gone from disk: appending then resuming again sees both
	// frames and no torn bytes.
	if err := j2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	count := 0
	j3, err := ResumeJournal(path, func([]byte) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if count != 2 || j3.TornBytes() != 0 {
		t.Fatalf("second resume: %d frames, %d torn bytes; want 2 frames, clean", count, j3.TornBytes())
	}
}

// TestJournalAcceptRejectionEndsPrefix pins that a frame the accept
// callback rejects ends the valid prefix exactly like a torn frame, even
// when intact frames follow it.
func TestJournalAcceptRejectionEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"good", "bad", "unreachable"} {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	var got []string
	j2, err := ResumeJournal(path, func(p []byte) bool {
		if string(p) == "bad" {
			return false
		}
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != 1 || got[0] != "good" {
		t.Fatalf("accepted %q, want only \"good\"", got)
	}
	if j2.TornBytes() == 0 {
		t.Fatal("rejected frame not counted as dropped tail")
	}
}

// TestJournalResumeMissingFile pins that resuming a path that does not
// exist yields an empty working journal rather than an error.
func TestJournalResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent")
	j, err := ResumeJournal(path, func([]byte) bool {
		t.Fatal("accept called on an empty journal")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.TornBytes() != 0 {
		t.Fatalf("empty journal reports %d torn bytes", j.TornBytes())
	}
	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
}

// TestJournalAppendRejectsBadPayloads pins the frame-level payload bounds.
func TestJournalAppendRejectsBadPayloads(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := j.Append(make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// TestJournalCreateErrors covers the unopenable-path failure mode.
func TestJournalCreateErrors(t *testing.T) {
	if _, err := CreateJournal(filepath.Join(t.TempDir(), "no", "such", "dir", "j")); err == nil {
		t.Fatal("CreateJournal in a missing directory succeeded")
	}
	if _, err := ResumeJournal(filepath.Join(t.TempDir(), "no", "such", "dir", "j"), nil); err == nil {
		t.Fatal("ResumeJournal in a missing directory succeeded")
	}
}

// TestStoreSyncFlushes covers Store.Sync on live and closed stores.
func TestStoreSyncFlushes(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Experiment: "e", Label: "l", Schema: "s", Value: []byte{42}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil { // no-op after close
		t.Fatal(err)
	}
}
