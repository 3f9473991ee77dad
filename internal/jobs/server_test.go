package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"udwn/internal/experiment"
	"udwn/internal/metrics"
)

// testConfig returns a Config with millisecond-scale timings and the given
// stub runner, so supervisor behaviour is observable without real grids.
func testConfig(t *testing.T, r Runner) Config {
	t.Helper()
	return Config{
		Dir:        t.TempDir(),
		Workers:    2,
		DrainGrace: 100 * time.Millisecond,
		Metrics:    metrics.NewRegistry(),
		Runner:     r,
	}
}

func mustOpen(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitTerminal blocks until the job reaches a terminal state, via its event
// stream (which closes after the terminal event).
func waitTerminal(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				v, err := s.View(id)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		case <-timeout:
			v, _ := s.View(id)
			t.Fatalf("job %s never went terminal (state %s)", id, v.State)
		}
	}
}

func okRunner(out string) Runner {
	return func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		return out, nil
	}
}

// gateRunner blocks every job until release yields (or the job's context
// fires), reporting each started job's Seeds on started.
func gateRunner(started chan<- int, release <-chan struct{}) Runner {
	return func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		if started != nil {
			started <- spec.Seeds
		}
		select {
		case <-release:
			return "ok\n", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func spec1() Spec { return Spec{Experiments: []string{"table1"}, Quick: true} }

func TestSubmitRunDone(t *testing.T) {
	s := mustOpen(t, testConfig(t, okRunner("hello\n")))
	defer s.Close()
	v, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("submit view = %+v", v)
	}
	final := waitTerminal(t, s, v.ID)
	if final.State != StateDone {
		t.Fatalf("final = %+v, want DONE", final)
	}
	out, state, err := s.Result(v.ID)
	if err != nil || state != StateDone || out != "hello\n" {
		t.Fatalf("Result = %q, %s, %v", out, state, err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	reg := s.Metrics()
	if a, d := reg.CounterValue("jobs/accepted"), reg.CounterValue("jobs/done"); a != 1 || d != 1 {
		t.Fatalf("accepted=%d done=%d, want 1/1", a, d)
	}
}

// List returns jobs in submission order. Ids are "j-%06d", so ordering them
// as strings would put j-1000000 before j-999999.
func TestListInSubmissionOrder(t *testing.T) {
	s := mustOpen(t, testConfig(t, okRunner("")))
	defer s.Close()
	s.mu.Lock()
	s.seq = 999998
	s.mu.Unlock()
	var want []string
	for i := 0; i < 3; i++ {
		v, err := s.Submit(spec1())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v.ID)
	}
	var got []string
	for _, v := range s.List() {
		got = append(got, v.ID)
	}
	if strings.Join(got, " ") != "j-999999 j-1000000 j-1000001" {
		t.Fatalf("List order %v, want %v", got, want)
	}
}

// TestFIFODequeue: with one worker, queued jobs start in submission order,
// whatever their weights.
func TestFIFODequeue(t *testing.T) {
	const n = 6
	started := make(chan int, n)
	release := make(chan struct{}, n)
	cfg := testConfig(t, gateRunner(started, release))
	cfg.Workers = 1
	s := mustOpen(t, cfg)
	defer func() { s.Drain(); s.Close() }()

	var ids []string
	for seeds := n; seeds >= 1; seeds-- {
		// Later submissions are lighter, so a weight-ordered dequeue would
		// reverse the queue.
		v, err := s.Submit(Spec{Experiments: []string{"table1"}, Quick: true, Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		if seeds == n {
			<-started // the first job holds the worker; the rest queue
		}
	}

	// Release the running job one at a time and record which starts next.
	var got []int
	for range ids[1:] {
		release <- struct{}{}
		select {
		case seeds := <-started:
			got = append(got, seeds)
		case <-time.After(10 * time.Second):
			t.Fatalf("worker wedged after starting %v", got)
		}
	}
	release <- struct{}{} // let the last job finish
	if fmt.Sprint(got) != "[5 4 3 2 1]" {
		t.Fatalf("start order by Seeds %v, want [5 4 3 2 1]", got)
	}
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
}

// TestFailedJobRunsOnce: a runner that errors is called once, and the job
// ends FAILED with that error.
func TestFailedJobRunsOnce(t *testing.T) {
	var calls atomic.Int64
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		calls.Add(1)
		return "", errors.New("boom")
	}
	s := mustOpen(t, testConfig(t, r))
	defer s.Close()
	v, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID)
	if final.State != StateFailed || final.Error != "boom" {
		t.Fatalf("final = %+v, want FAILED with the runner's error", final)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
	if got := s.Metrics().CounterValue("jobs/failed"); got != 1 {
		t.Fatalf("jobs/failed = %d, want 1", got)
	}
}

// endAfterFirstCell wraps the production runner so that its first call's
// run context ends once the grid has committed a cell, as a deadline firing
// mid-grid would; later calls run unwrapped. The grid reports a cell only
// after storing it, so the cell is in the store when the context ends.
func endAfterFirstCell(calls *atomic.Int64) Runner {
	inner := ExperimentRunner(1)
	return func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		if calls.Add(1) > 1 {
			return inner(ctx, spec, rc)
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		forward := rc.Progress
		rc.Progress = func(p experiment.Progress) {
			forward(p)
			if p.Done > p.Failed {
				cancel()
			}
		}
		return inner(ctx, spec, rc)
	}
}

// TestFailedJobResubmitResumes: a real-grid job whose run context ends
// after its first committed cell goes FAILED and is not rerun.
// Resubmitting the same spec hits the store for the committed cell,
// computes only the rest, and renders output byte-identical to an
// uninterrupted job.
func TestFailedJobResubmitResumes(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig(t, endAfterFirstCell(&calls))
	cfg.Workers = 1
	s := mustOpen(t, cfg)
	defer s.Close()
	sp := Spec{Experiments: []string{"table3"}, Quick: true, Seeds: 2}
	v, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitTerminal(t, s, v.ID)
	if failed.State != StateFailed || failed.Progress == nil {
		t.Fatalf("interrupted job = %+v, want FAILED with progress", failed)
	}
	total := failed.Progress.Total
	if want := fmt.Sprintf("cancelled after 1/%d cells", total); total < 2 || !strings.Contains(failed.Error, want) {
		t.Fatalf("error %q over %d cells, want one naming %q", failed.Error, total, want)
	}
	st1 := s.Store().Stats()
	if calls.Load() != 1 || st1.Stores != 1 {
		t.Fatalf("after the failed job: %d runner calls and %d stored cells, want 1 and 1", calls.Load(), st1.Stores)
	}

	v2, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, v2.ID); final.State != StateDone {
		t.Fatalf("resubmitted job = %+v, want DONE", final)
	}
	st2 := s.Store().Stats()
	if hits, stores := st2.Hits-st1.Hits, st2.Stores-st1.Stores; hits != 1 || stores != int64(total-1) {
		t.Fatalf("resubmission: %d hits and %d stores, want 1 and %d", hits, stores, total-1)
	}
	resumed, _, err := s.Result(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	ref := mustOpen(t, Config{Dir: t.TempDir(), Workers: 1, Metrics: metrics.NewRegistry()})
	defer func() { ref.Drain(); ref.Close() }()
	rv, err := ref.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, ref, rv.ID); final.State != StateDone {
		t.Fatalf("reference job = %+v, want DONE", final)
	}
	want, _, err := ref.Result(rv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != want {
		t.Fatalf("resubmitted output diverged:\n--- resubmitted ---\n%s\n--- uninterrupted ---\n%s", resumed, want)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := mustOpen(t, testConfig(t, okRunner("")))
	defer s.Close()
	bad := []Spec{
		{},
		{Experiments: []string{"no-such-experiment"}},
		{Experiments: []string{"table1"}, Seeds: -1},
		{Experiments: []string{"table1"}, Seeds: 10_000},
		{Experiments: []string{"table1"}, DeadlineMs: -5},
		{Experiments: []string{"table1"}, DeadlineMs: int64(24 * time.Hour / time.Millisecond)},
	}
	for i, sp := range bad {
		var inv *InvalidError
		if _, err := s.Submit(sp); !errors.As(err, &inv) {
			t.Fatalf("spec %d: err = %v, want InvalidError", i, err)
		}
	}
	if got := s.Metrics().CounterValue("jobs/rejected"); got != int64(len(bad)) {
		t.Fatalf("jobs/rejected = %d, want %d", got, len(bad))
	}
}

// TestLoadSheddingByWeight: the in-flight weight of queued plus running
// jobs is the one admission limit, and it bounds the queue as well.
func TestLoadSheddingByWeight(t *testing.T) {
	block := make(chan struct{})
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return "", nil
	}
	cfg := testConfig(t, r)
	cfg.Workers = 1
	cfg.MaxWeight = 3
	s := mustOpen(t, cfg)
	defer s.Close()
	defer close(block)

	// One running job first (wait until the worker pops it), then two
	// queued ones fill the weight budget.
	if _, err := s.Submit(spec1()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := s.View("j-000001"); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec1()); err != nil {
			t.Fatal(err)
		}
	}
	if sv := s.Status(); sv.QueueDepth != 2 || sv.Weight != cfg.MaxWeight {
		t.Fatalf("queue_depth = %d, weight = %d; want 2 queued at weight %d", sv.QueueDepth, sv.Weight, cfg.MaxWeight)
	}
	if _, err := s.Submit(spec1()); !errors.Is(err, ErrBusy) {
		t.Fatalf("weight overflow with one running and two queued: err = %v, want ErrBusy", err)
	}
	// A heavy spec sheds while the budget still has room for a light one.
	cfg2 := testConfig(t, r)
	cfg2.Workers = 1
	cfg2.MaxWeight = 5
	s2 := mustOpen(t, cfg2)
	defer s2.Close()
	heavy := Spec{Experiments: []string{"table1"}, Seeds: 4, Quick: true} // weight 4
	if _, err := s2.Submit(heavy); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Submit(heavy); !errors.Is(err, ErrBusy) {
		t.Fatalf("weight overflow: err = %v, want ErrBusy", err)
	}
	if shed := s2.Metrics().CounterValue("jobs/shed"); shed != 1 {
		t.Fatalf("jobs/shed = %d, want 1", shed)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	cfg := testConfig(t, r)
	cfg.Workers = 1
	s := mustOpen(t, cfg)
	defer s.Close()
	running, _ := s.Submit(spec1())
	queued, _ := s.Submit(spec1())

	// Cancel the queued job: terminal immediately, no worker involved.
	v, err := s.Cancel(queued.ID)
	if err != nil || v.State != StateCancelled {
		t.Fatalf("cancel queued: %+v, %v", v, err)
	}
	// Cancelling again conflicts.
	if _, err := s.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("re-cancel: err = %v, want ErrTerminal", err)
	}
	// Cancel the running job: its context fires and it unwinds CANCELLED.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, running.ID)
	if final.State != StateCancelled {
		t.Fatalf("running job state = %s, want CANCELLED", final.State)
	}
	if _, err := s.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrNotFound", err)
	}
	if got := s.Metrics().CounterValue("jobs/cancelled"); got != 2 {
		t.Fatalf("jobs/cancelled = %d, want 2", got)
	}
}

func TestDeadlineFailsAttempt(t *testing.T) {
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		<-ctx.Done()
		return "", ctx.Err()
	}
	s := mustOpen(t, testConfig(t, r))
	defer s.Close()
	sp := spec1()
	sp.DeadlineMs = 20
	v, _ := s.Submit(sp)
	final := waitTerminal(t, s, v.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want FAILED after deadline", final.State)
	}
	if !strings.Contains(final.Error, "deadline") && !strings.Contains(final.Error, "context") {
		t.Fatalf("error = %q, want a deadline error", final.Error)
	}
}

// TestDrainParksRunningJobAndResumes pins the drain-then-restart loop: a job
// still running when the grace expires parks (no terminal record), and a new
// server over the same directory re-queues it as resumed and finishes it.
func TestDrainParksRunningJobAndResumes(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	blockForever := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		started <- struct{}{}
		<-ctx.Done()
		return "", ctx.Err()
	}
	cfg := Config{
		Dir: dir, Workers: 1, DrainGrace: 50 * time.Millisecond,
		Metrics: metrics.NewRegistry(), Runner: blockForever,
	}
	s := mustOpen(t, cfg)
	v, err := s.Submit(spec1())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.View(v.ID); got.State != StateQueued {
		t.Fatalf("state after drain = %s, want QUEUED (parked)", got.State)
	}
	if got := s.Metrics().CounterValue("jobs/drained"); got != 1 {
		t.Fatalf("jobs/drained = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Metrics = metrics.NewRegistry()
	cfg2.Runner = okRunner("after restart")
	s2 := mustOpen(t, cfg2)
	defer s2.Close()
	if got := s2.Metrics().CounterValue("jobs/resumed"); got != 1 {
		t.Fatalf("jobs/resumed = %d, want 1", got)
	}
	final := waitTerminal(t, s2, v.ID)
	if final.State != StateDone || !final.Resumed {
		t.Fatalf("resumed final = %+v, want resumed DONE", final)
	}
	out, _, _ := s2.Result(v.ID)
	if out != "after restart" {
		t.Fatalf("output = %q", out)
	}
	s2.Drain()
}

// TestTerminalRecordsSurviveRestart pins that DONE/FAILED outcomes — output
// and last error included — keep serving across a restart.
func TestTerminalRecordsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		if calls.Add(1) == 1 {
			return "persisted output", nil
		}
		return "", errors.New("persistent failure")
	}
	cfg := Config{
		Dir: dir, Workers: 1, Metrics: metrics.NewRegistry(), Runner: r,
	}
	s := mustOpen(t, cfg)
	ok1, _ := s.Submit(spec1())
	waitTerminal(t, s, ok1.ID)
	bad := spec1()
	fail1, _ := s.Submit(bad)
	waitTerminal(t, s, fail1.ID)
	s.Drain()
	s.Close()

	cfg2 := cfg
	cfg2.Metrics = metrics.NewRegistry()
	s2 := mustOpen(t, cfg2)
	defer func() { s2.Drain(); s2.Close() }()
	if out, state, err := s2.Result(ok1.ID); err != nil || state != StateDone || out != "persisted output" {
		t.Fatalf("restarted Result = %q, %s, %v", out, state, err)
	}
	v, err := s2.View(fail1.ID)
	if err != nil || v.State != StateFailed || !strings.Contains(v.Error, "persistent failure") {
		t.Fatalf("restarted failed view = %+v, %v", v, err)
	}
	// Terminal jobs must not re-run.
	if got := s2.Metrics().CounterValue("jobs/resumed"); got != 0 {
		t.Fatalf("jobs/resumed = %d, want 0", got)
	}
}

// TestDrainRefusesSubmissions pins the drain accept contract.
func TestDrainRefusesSubmissions(t *testing.T) {
	s := mustOpen(t, testConfig(t, okRunner("")))
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec1()); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: err = %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	s.Close()
}

// TestSubscribeTerminalJobClosesImmediately pins the late-subscriber path.
func TestSubscribeTerminalJobClosesImmediately(t *testing.T) {
	s := mustOpen(t, testConfig(t, okRunner("x")))
	defer func() { s.Drain(); s.Close() }()
	v, _ := s.Submit(spec1())
	waitTerminal(t, s, v.ID)
	ch, cancel, err := s.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ev, ok := <-ch
	if !ok || !ev.State.Terminal() {
		t.Fatalf("first event = %+v, %v; want terminal snapshot", ev, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("stream did not close after terminal snapshot")
	}
}

// TestExperimentRunnerCancellation drives the production runner with a
// pre-cancelled context: it must return the cancellation as an error, not
// hang or panic through.
func TestExperimentRunnerCancellation(t *testing.T) {
	r := ExperimentRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r(ctx, Spec{Experiments: []string{"table1"}, Quick: true}, RunContext{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExperimentRunnerProducesOutput runs one real quick experiment through
// the production runner end to end.
func TestExperimentRunnerProducesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiment run")
	}
	r := ExperimentRunner(2)
	out, err := r(context.Background(), Spec{Experiments: []string{"table1"}, Quick: true, Seeds: 1},
		RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== table1:") {
		t.Fatalf("output missing experiment header:\n%s", out)
	}
}
