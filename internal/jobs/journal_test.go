package jobs

import (
	"os"
	"path/filepath"
	"testing"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
)

// TestJobJournalTornTailRecovery pins the crash-recovery discipline of the
// job ledger: garbage appended after the last valid frame (a torn write) is
// truncated away on the next Open, every record before it survives, and the
// drop is reported.
func TestJobJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1, Metrics: metrics.NewRegistry(), Runner: okRunner("kept output")}
	s := mustOpen(t, cfg)
	v, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("\x00garbage torn tail")
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg2 := cfg
	cfg2.Metrics = metrics.NewRegistry()
	s2 := mustOpen(t, cfg2)
	defer func() { s2.Drain(); s2.Close() }()
	if got := s2.JournalTornBytes(); got != int64(len(torn)) {
		t.Fatalf("JournalTornBytes = %d, want %d", got, len(torn))
	}
	out, state, err := s2.Result(v.ID)
	if err != nil || state != StateDone || out != "kept output" {
		t.Fatalf("record before the torn tail was lost: %q, %s, %v", out, state, err)
	}
}

// TestJobJournalRejectsMalformedEvents pins that a frame which is valid at
// the container level but not a well-formed job event ends the replayable
// prefix exactly like a torn frame.
func TestJobJournalRejectsMalformedEvents(t *testing.T) {
	dir := t.TempDir()
	j, err := checkpoint.CreateJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lg := &jobJournal{j: j}
	if err := lg.append(jobEvent{Kind: "submit", ID: "j-000001", Seq: 1, Spec: &Spec{Experiments: []string{"table1"}}}); err != nil {
		t.Fatal(err)
	}
	// Container-valid frames that are not job events.
	for _, payload := range [][]byte{
		[]byte(`{"kind":"submit","id":"j-000002"}`), // submit without spec
		[]byte(`{"kind":"bogus","id":"j-000003"}`),  // unknown kind
		[]byte(`{"kind":"done"}`),                   // missing id
		[]byte(`not json at all`),
	} {
		if err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	lg.close()

	var replayed []jobEvent
	l2, err := resumeJobJournal(dir, func(ev jobEvent) { replayed = append(replayed, ev) })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if len(replayed) != 1 || replayed[0].ID != "j-000001" {
		t.Fatalf("replayed %+v, want only the valid submit", replayed)
	}
	if l2.tornBytes() == 0 {
		t.Fatal("malformed frames were not reported as dropped")
	}
}

// TestJobJournalReplaysRetiredClientField pins that a state directory
// written while specs still carried a "client" field keeps opening. Replay
// decodes frames with plain json.Unmarshal, which skips the retired field:
// the finished job serves its output byte-identical, the unterminated one
// resumes to DONE, and both survive a GC rewrite and another restart.
func TestJobJournalReplaysRetiredClientField(t *testing.T) {
	dir := t.TempDir()
	j, err := checkpoint.CreateJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		`{"kind":"submit","id":"j-000001","seq":1,"spec":{"experiments":["table1"],"quick":true,"client":"alice"}}`,
		`{"kind":"done","id":"j-000001","output":"rendered before the upgrade\n","attempts":1,"done_ms":1700000000000}`,
		`{"kind":"submit","id":"j-000002","seq":2,"spec":{"experiments":["table1"],"quick":true,"seed":7,"client":"alice"}}`,
	} {
		if err := j.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	const oldOut, newOut = "rendered before the upgrade\n", "resumed output\n"
	serves := func(s *Server, id, want string) {
		t.Helper()
		if out, state, err := s.Result(id); err != nil || state != StateDone || out != want {
			t.Fatalf("job %s: %q, %s, %v; want DONE with %q", id, out, state, err, want)
		}
	}
	cfg := Config{Dir: dir, Workers: 1, Metrics: metrics.NewRegistry(), Runner: okRunner(newOut)}
	s := mustOpen(t, cfg)
	if n := len(s.List()); n != 2 || s.JournalTornBytes() != 0 {
		t.Fatalf("old ledger replayed %d jobs and dropped %d bytes, want 2 and 0", n, s.JournalTornBytes())
	}
	serves(s, "j-000001", oldOut)
	if v := waitTerminal(t, s, "j-000002"); !v.Resumed || v.State != StateDone {
		t.Fatalf("unterminated job = %+v, want resumed and DONE", v)
	}
	serves(s, "j-000002", newOut)
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	cfg.Metrics = metrics.NewRegistry()
	s2 := mustOpen(t, cfg)
	defer func() { s2.Drain(); s2.Close() }()
	serves(s2, "j-000001", oldOut)
	serves(s2, "j-000002", newOut)
}
