package jobs

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"udwn/internal/checkpoint"
)

// runN runs n jobs through the stub runner, one at a time, so they finish
// in submission order: retention ranks terminal jobs by finish time, and
// the tests name the oldest by id.
func runN(t *testing.T, s *Server, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		v, err := s.Submit(spec1())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
		if final := waitTerminal(t, s, v.ID); final.State != StateDone {
			t.Fatalf("job %s finished %s", v.ID, final.State)
		}
	}
	return ids
}

// TestGCRetainCountCollectsOldest: RetainCount keeps the newest terminal
// jobs, the collected ids disappear from the API, the ledger shrinks, the
// id allocator survives, and the whole arrangement is durable across a
// restart.
func TestGCRetainCountCollectsOldest(t *testing.T) {
	cfg := testConfig(t, okRunner("out\n"))
	cfg.RetainCount = 2
	dir := cfg.Dir
	s := mustOpen(t, cfg)
	ids := runN(t, s, 5)

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsCollected != 3 || st.JobsKept != 2 {
		t.Fatalf("gc collected %d kept %d, want 3/2", st.JobsCollected, st.JobsKept)
	}
	if st.LedgerBytesAfter >= st.LedgerBytesBefore {
		t.Fatalf("ledger did not shrink: %d -> %d", st.LedgerBytesBefore, st.LedgerBytesAfter)
	}
	for _, id := range ids[:3] {
		if _, err := s.View(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("collected job %s still visible (err %v)", id, err)
		}
	}
	for _, id := range ids[3:] {
		if out, state, err := s.Result(id); err != nil || state != StateDone || out != "out\n" {
			t.Fatalf("retained job %s unservable: %q %s %v", id, out, state, err)
		}
	}
	if got := s.Metrics().CounterValue("jobs/gc/collected"); got != 3 {
		t.Fatalf("jobs/gc/collected = %d, want 3", got)
	}

	// The allocator must not recycle collected ids.
	v, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j-000006" {
		t.Fatalf("post-GC id %s, want j-000006 (seq pinned by the rewrite)", v.ID)
	}
	waitTerminal(t, s, v.ID)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Restart: the rewritten ledger must replay to the same retained view.
	cfg2 := testConfig(t, okRunner("out\n"))
	cfg2.Dir = dir
	s2 := mustOpen(t, cfg2)
	defer func() { s2.Drain(); s2.Close() }()
	views := s2.List()
	if len(views) != 3 {
		t.Fatalf("restart sees %d jobs, want 3 (2 retained + 1 new)", len(views))
	}
	for _, v := range views {
		if v.State != StateDone {
			t.Fatalf("job %s replayed as %s, want DONE", v.ID, v.State)
		}
	}
	if v, err := s2.Submit(spec1()); err != nil || v.ID != "j-000007" {
		t.Fatalf("restarted allocator issued %s (err %v), want j-000007", v.ID, err)
	}
}

// TestGCRetainAge: only terminal jobs older than RetainAge are collected.
func TestGCRetainAge(t *testing.T) {
	cfg := testConfig(t, okRunner(""))
	cfg.RetainAge = time.Hour
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()
	ids := runN(t, s, 3)

	// Backdate the first two past the retention horizon.
	s.mu.Lock()
	s.jobs[ids[0]].doneAt -= 2 * time.Hour.Milliseconds()
	s.jobs[ids[1]].doneAt -= 2 * time.Hour.Milliseconds()
	s.mu.Unlock()

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsCollected != 2 {
		t.Fatalf("gc collected %d, want 2 (the backdated ones)", st.JobsCollected)
	}
	if _, err := s.View(ids[2]); err != nil {
		t.Fatalf("young job collected: %v", err)
	}
}

// TestGCRetainBytes: the oldest terminal jobs go until the state directory
// fits the byte budget.
func TestGCRetainBytes(t *testing.T) {
	big := strings.Repeat("x", 4096)
	cfg := testConfig(t, okRunner(big))
	cfg.RetainBytes = 10 * 1024
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()
	ids := runN(t, s, 8) // ~32 KiB of output in the ledger

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsCollected == 0 {
		t.Fatal("nothing collected despite the budget being blown")
	}
	total := st.LedgerBytesAfter + st.CellBytesAfter
	if total > cfg.RetainBytes {
		t.Fatalf("state still %d bytes after GC, budget %d", total, cfg.RetainBytes)
	}
	// The newest job must survive byte-budget pressure last.
	if _, err := s.View(ids[len(ids)-1]); err != nil && st.JobsKept > 0 {
		t.Fatalf("newest job collected before older ones: %v", err)
	}
}

// TestGCNeverCollectsNonTerminal: live jobs are untouchable regardless of
// policy pressure.
func TestGCNeverCollectsNonTerminal(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cfg := testConfig(t, gateRunner(nil, release))
	cfg.Workers = 1
	cfg.RetainCount = 1
	cfg.RetainAge = time.Nanosecond // maximal pressure
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()

	running, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker pick up `running`
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if _, err := s.View(id); err != nil {
			t.Fatalf("non-terminal job %s collected: %v", id, err)
		}
	}
}

// TestGCStoreKeepSet: under retention, checkpoint records referenced by a
// non-terminal job survive compaction (zero recompute on resume) while
// unreferenced ones are dropped; without retention, GC keeps every record.
func TestGCStoreKeepSet(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cfg := testConfig(t, gateRunner(nil, release))
	cfg.Workers = 1
	cfg.RetainCount = 1
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()

	// One non-terminal job referencing table1 (running, gated).
	if _, err := s.Submit(spec1()); err != nil {
		t.Fatal(err)
	}
	live := checkpoint.Record{Experiment: "table1", Label: "row=0 seed=0", Schema: "v1", Value: []byte{1}}
	stale := checkpoint.Record{Experiment: "figure9", Label: "row=0 seed=0", Schema: "v1", Value: []byte{2}}
	if err := s.Store().Put(live); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().Put(stale); err != nil {
		t.Fatal(err)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDropped != 1 || st.CellsKept != 1 {
		t.Fatalf("cells dropped=%d kept=%d, want 1/1", st.CellsDropped, st.CellsKept)
	}
	if _, ok := s.Store().Lookup(live.Key()); !ok {
		t.Fatal("record referenced by a live job was dropped — resume would recompute")
	}
	if _, ok := s.Store().Lookup(stale.Key()); ok {
		t.Fatal("unreferenced record survived retention GC")
	}
}

func TestGCWithoutRetentionKeepsAllCells(t *testing.T) {
	s := mustOpen(t, testConfig(t, okRunner("")))
	defer func() { s.Drain(); s.Close() }()
	rec := checkpoint.Record{Experiment: "figure9", Label: "row=0 seed=0", Schema: "v1", Value: []byte{2}}
	if err := s.Store().Put(rec); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDropped != 0 || st.JobsCollected != 0 {
		t.Fatalf("no-retention GC dropped cells=%d jobs=%d, want 0/0", st.CellsDropped, st.JobsCollected)
	}
	if _, ok := s.Store().Lookup(rec.Key()); !ok {
		t.Fatal("record lost by a compaction-only GC")
	}
}

// TestGCRemovesCollectedTraces: a collected job's trace file goes with it.
func TestGCRemovesCollectedTraces(t *testing.T) {
	cfg := testConfig(t, okRunner(""))
	cfg.RetainCount = 1
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()
	ids := runN(t, s, 3)
	// The stub runner writes no traces; plant files where the real one would.
	for _, id := range ids {
		if err := os.WriteFile(s.tracePath(id), []byte("trace"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.TracesRemoved != 2 || st.TraceBytesRemoved == 0 {
		t.Fatalf("gc removed %d traces (%d bytes), want 2", st.TracesRemoved, st.TraceBytesRemoved)
	}
	if _, err := os.Stat(s.tracePath(ids[0])); !os.IsNotExist(err) {
		t.Fatal("collected job's trace survived")
	}
	if _, err := os.Stat(s.tracePath(ids[2])); err != nil {
		t.Fatal("retained job's trace removed")
	}
}

// TestCancelRemovesTrace is the DELETE /jobs/{id} satellite regression: a
// cancelled job's on-disk trace is unlinked with it, and cancelling a job
// that never wrote one succeeds (ENOENT tolerated).
func TestCancelRemovesTrace(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cfg := testConfig(t, gateRunner(nil, release))
	cfg.Workers = 1
	s, ts := newTestAPI(t, cfg)

	sp := spec1()
	sp.Trace = true
	running, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	queuedTraced, err := s.Submit(sp) // never starts; no trace file
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Plant the trace the gated stub attempt would have written.
	if err := os.WriteFile(s.tracePath(running.ID), []byte("trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+running.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if v := waitTerminal(t, s, running.ID); v.State != StateCancelled {
		t.Fatalf("state %s, want CANCELLED", v.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(s.tracePath(running.ID)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job's trace file still on disk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Cancel(queuedTraced.ID); err != nil {
		t.Fatalf("cancelling an untraced-yet job: %v", err)
	}
	if v := waitTerminal(t, s, queuedTraced.ID); v.State != StateCancelled {
		t.Fatalf("untraced-yet job ended %s, want CANCELLED", v.State)
	}
}

// TestTraceSubmitUnwritableDir is the trace-admission satellite regression:
// "trace": true with a broken traces dir fails the submit with a typed 503,
// not a mid-run attempt error. The dir is replaced by a regular file
// (ENOTDIR) rather than chmod'd, so the test holds even when run as root.
func TestTraceSubmitUnwritableDir(t *testing.T) {
	cfg := testConfig(t, okRunner(""))
	s, ts := newTestAPI(t, cfg)

	traces := filepath.Join(cfg.Dir, "traces")
	if err := os.RemoveAll(traces); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traces, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := s.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Trace: true})
	if !errors.Is(err, ErrTraceUnavailable) {
		t.Fatalf("submit returned %v, want ErrTraceUnavailable", err)
	}
	resp := postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"],"quick":true,"trace":true}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP status %d, want 503", resp.StatusCode)
	}
	// Untraced submissions are unaffected.
	if _, err := s.Submit(spec1()); err != nil {
		t.Fatalf("untraced submit refused: %v", err)
	}
}

// TestGCEndpointAndStatusz: POST /gc runs a sweep and /statusz reflects it.
func TestGCEndpointAndStatusz(t *testing.T) {
	cfg := testConfig(t, okRunner(""))
	cfg.RetainCount = 1
	s, ts := newTestAPI(t, cfg)
	runN(t, s, 3)

	resp, err := http.Post(ts.URL+"/gc", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /gc status %d", resp.StatusCode)
	}
	var st GCStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCollected != 2 {
		t.Fatalf("POST /gc collected %d, want 2", st.JobsCollected)
	}

	var sv StatusView
	r, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.GC.Last == nil || sv.GC.Last.JobsCollected != 2 {
		t.Fatalf("statusz gc panel = %+v, want last sweep with 2 collected", sv.GC)
	}
	if sv.GC.RetainCount != 1 {
		t.Fatalf("statusz gc retain_count = %d, want 1", sv.GC.RetainCount)
	}
	if sv.Counters["jobs/gc/runs"] != 1 {
		t.Fatalf("jobs/gc/runs = %d, want 1", sv.Counters["jobs/gc/runs"])
	}
}

// TestGCSweeperRuns: the background sweeper enforces retention without any
// explicit GC call.
func TestGCSweeperRuns(t *testing.T) {
	cfg := testConfig(t, okRunner(""))
	cfg.RetainCount = 1
	cfg.GCInterval = 20 * time.Millisecond
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()
	runN(t, s, 3)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.Metrics().CounterValue("jobs/gc/collected") >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never collected the jobs past retention")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(s.List()) != 1 {
		t.Fatalf("%d jobs after sweep, want 1", len(s.List()))
	}
}

// TestGCCancelledJobQuotaAccounting guards the finish-path bookkeeping the
// global weight budget depends on: a cancel from the queue and a completion
// each release their job's weight, and a GC after them leaves the budget
// alone, so a spec weighing the whole budget is admitted afterwards.
func TestGCCancelledJobQuotaAccounting(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig(t, gateRunner(nil, release))
	cfg.Workers = 1
	cfg.MaxWeight = 4
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()

	// The single worker can only ever hold the first job, so the second is
	// still queued when it is cancelled.
	ran, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.Cancel(queued.ID); err != nil || v.State != StateCancelled || v.Error != "cancelled before start" {
		t.Fatalf("cancel from the queue = %+v, %v; want CANCELLED before start", v, err)
	}
	close(release)
	if v := waitTerminal(t, s, ran.ID); v.State != StateDone {
		t.Fatalf("running job finished %s, want DONE", v.State)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if w := s.Status().Weight; w != 0 {
		t.Fatalf("in-flight weight %d after cancel+completion+GC, want 0", w)
	}
	full := Spec{Experiments: []string{"table1"}, Quick: true, Seeds: cfg.MaxWeight}
	v, err := s.Submit(full)
	if err != nil {
		t.Fatalf("weight leak: a spec of weight %d = MaxWeight was refused: %v", full.weight(), err)
	}
	waitTerminal(t, s, v.ID)
}
