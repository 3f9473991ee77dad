package checkpoint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCompactDropsAndSurvivesResume(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := testRecord("table1", "row=0 seed=0", []byte{1})
	drop := testRecord("old", "row=9 seed=9", []byte{2})
	mustPut(t, s, keep)
	mustPut(t, s, drop)

	st, err := s.Compact(func(r *Record) bool { return r.Experiment != "old" })
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 1 || st.Dropped != 1 {
		t.Fatalf("compact stats kept=%d dropped=%d, want 1/1", st.Kept, st.Dropped)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("compact did not shrink journal: %d -> %d", st.BytesBefore, st.BytesAfter)
	}
	if _, ok := s.Lookup(drop.Key()); ok {
		t.Fatal("dropped record still in index")
	}
	if _, ok := s.Lookup(keep.Key()); !ok {
		t.Fatal("kept record gone from index")
	}
	stats := s.Stats()
	if stats.Compactions != 1 || stats.CompactDropped != 1 {
		t.Fatalf("stats compactions=%d dropped=%d, want 1/1", stats.Compactions, stats.CompactDropped)
	}

	// Appends after a compaction must land in the rewritten journal.
	after := testRecord("table1", "row=1 seed=0", []byte{3})
	mustPut(t, s, after)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("resumed store has %d records, want 2", r.Len())
	}
	for _, want := range []Record{keep, after} {
		if _, ok := r.Lookup(want.Key()); !ok {
			t.Fatalf("record %s/%s missing after compaction+resume", want.Experiment, want.Label)
		}
	}
	if _, ok := r.Lookup(drop.Key()); ok {
		t.Fatal("dropped record resurrected by resume")
	}
}

func TestCompactKeepAllSqueezesDuplicateFrames(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("table1", "row=0 seed=0", []byte{1, 2, 3})
	for i := 0; i < 5; i++ {
		mustPut(t, s, rec) // same key: 5 frames, 1 live record
	}
	st, err := s.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 1 || st.Dropped != 0 {
		t.Fatalf("compact stats kept=%d dropped=%d, want 1/0", st.Kept, st.Dropped)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("keep-all compact did not squeeze duplicates: %d -> %d", st.BytesBefore, st.BytesAfter)
	}
	s.Close()
}

// TestRewriteCrashStages snapshots the journal file at each RewriteStage and
// verifies a resume from that snapshot sees either the complete old contents
// or the complete new contents — the old-or-new atomicity Rewrite promises.
// (The re-exec SIGKILL variant lives in internal/jobs; this covers the same
// states without process churn.)
func TestRewriteCrashStages(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := testRecord("old", "row=0 seed=0", []byte{1})
	kept := testRecord("table1", "row=0 seed=0", []byte{2})
	mustPut(t, s, old)
	mustPut(t, s, kept)

	snaps := map[RewriteStage][]byte{}
	RewriteTestHook = func(stage RewriteStage, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("stage %s: read journal: %v", stage, err)
			return
		}
		snaps[stage] = data
	}
	defer func() { RewriteTestHook = nil }()

	if _, err := s.Compact(func(r *Record) bool { return r.Experiment != "old" }); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for stage, data := range snaps {
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A crash at temp-written also leaves the staged temp behind;
		// reopening must discard it.
		if stage == StageTempWritten {
			if err := os.WriteFile(rewritePath(filepath.Join(crash, journalName)), []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Resume(crash)
		if err != nil {
			t.Fatalf("stage %s: resume: %v", stage, err)
		}
		if r.Stats().TornBytes != 0 {
			t.Errorf("stage %s: resume found torn bytes in a rewrite state", stage)
		}
		_, hasOld := r.Lookup(old.Key())
		_, hasKept := r.Lookup(kept.Key())
		switch stage {
		case StageTempWritten: // old journal still authoritative
			if !hasOld || !hasKept {
				t.Errorf("stage %s: want complete old contents, got old=%v kept=%v", stage, hasOld, hasKept)
			}
		case StageRenamed: // new journal fully in place
			if hasOld || !hasKept {
				t.Errorf("stage %s: want complete new contents, got old=%v kept=%v", stage, hasOld, hasKept)
			}
		}
		r.Close()
		if _, err := os.Stat(rewritePath(filepath.Join(crash, journalName))); !os.IsNotExist(err) {
			t.Errorf("stage %s: stale rewrite temp not removed on resume", stage)
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("hook saw %d stages, want 2", len(snaps))
	}
}

func TestConcurrentPutsDuringCompactAllSurvive(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := testRecord("table1", labelFor(w, i), []byte{byte(w), byte(i)})
				mustPutConcurrent(t, s, rec)
				if i%5 == 0 {
					if _, err := s.Compact(nil); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != writers*perWriter {
		t.Fatalf("resumed store has %d records, want %d — a compaction dropped a concurrent Put", r.Len(), writers*perWriter)
	}
}

func mustPutConcurrent(t *testing.T, s *Store, rec Record) {
	if err := s.Put(rec); err != nil {
		t.Error(err)
	}
}
