package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"udwn/internal/checkpoint"
	"udwn/internal/experiment"
	"udwn/internal/metrics"
)

// Config tunes the daemon. The zero value of every field selects a sensible
// default (see fill); only Dir is required.
type Config struct {
	// Dir is the daemon state directory: jobs.journal (the accepted-work
	// ledger) plus cells/ (the shared checkpoint store). Both are resumed,
	// never truncated, so restarting over the same Dir continues where the
	// previous process died.
	Dir string
	// Workers is the number of jobs executing concurrently (default 2).
	Workers int
	// GridWorkers sizes the worker pool inside each job's grid (default 1,
	// one cell at a time; job-level parallelism already fills the pool).
	GridWorkers int
	// QueueDepth bounds the number of jobs waiting for a worker; beyond
	// it submissions shed with ErrBusy (default 64).
	QueueDepth int
	// MaxWeight bounds the total declared cell weight (experiments ×
	// seeds) of queued plus running jobs — the in-flight budget behind the
	// second shedding condition (default 512). A spec whose weight alone
	// exceeds it is invalid, not shed.
	MaxWeight int
	// DefaultDeadline bounds a job's run when the spec sets none (default
	// 2m; a spec may ask for up to maxDeadline). A job parked by drain gets
	// a fresh deadline when the next start runs it.
	DefaultDeadline time.Duration
	// DrainGrace is how long Drain lets running jobs finish before their
	// grids are cancelled and the jobs park for the next start (default 5s).
	DrainGrace time.Duration
	// RetainAge, RetainCount and RetainBytes are the retention policy GC
	// enforces over terminal jobs (see gc.go). Zero disables the
	// corresponding axis; all three zero keeps every terminal job forever
	// (GC then only compacts duplicate journal frames). RetainAge drops
	// terminal jobs older than the duration, RetainCount keeps at most that
	// many terminal jobs (newest first), and RetainBytes drops oldest
	// terminal jobs until the state directory (ledger + checkpoint journal +
	// traces) fits the budget.
	RetainAge   time.Duration
	RetainCount int
	RetainBytes int64
	// GCInterval is the background sweeper's period. Zero runs GC only on
	// demand (POST /gc or Server.GC) unless a retention axis is configured,
	// in which case it defaults to 1m.
	GCInterval time.Duration
	// Runner executes jobs; nil selects ExperimentRunner with the grid
	// settings above. Tests inject fakes here.
	Runner Runner
	// Metrics is the daemon registry carrying the jobs/* counters; nil
	// creates a private one.
	Metrics *metrics.Registry
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.GridWorkers <= 0 {
		c.GridWorkers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxWeight <= 0 {
		c.MaxWeight = 512
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.GCInterval <= 0 && (c.RetainAge > 0 || c.RetainCount > 0 || c.RetainBytes > 0) {
		c.GCInterval = time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Runner == nil {
		c.Runner = ExperimentRunner(c.GridWorkers)
	}
}

// counterNames is the canonical jobs/* instrument set, registered up front
// so every snapshot reports the full set (zeros included).
var counterNames = []string{
	"jobs/accepted", "jobs/shed", "jobs/rejected", "jobs/journal-errors",
	"jobs/done", "jobs/failed", "jobs/cancelled",
	"jobs/resumed", "jobs/drained",
	"jobs/gc/runs", "jobs/gc/collected", "jobs/gc/traces-removed",
	"checkpoint/gc/compactions", "checkpoint/gc/dropped",
}

// job is the server-internal mutable record behind a JobView. Every field
// is guarded by the server mutex.
type job struct {
	id      string
	spec    Spec
	seqNo   int
	state   State
	lastErr string
	output  string
	resumed bool
	prog    *ProgressView
	// doneAt is the terminal transition's Unix-millisecond wall clock (0
	// while non-terminal) — what RetainAge ages against.
	doneAt int64

	cancelReq bool
	runCancel context.CancelFunc

	subs   map[int]chan Event
	subSeq int
}

// view snapshots the job; the caller holds the server mutex.
func (j *job) view() JobView {
	v := JobView{
		ID:      j.id,
		State:   j.state,
		Spec:    j.spec,
		Error:   j.lastErr,
		Resumed: j.resumed,
	}
	if j.prog != nil {
		p := *j.prog
		v.Progress = &p
	}
	return v
}

// Server is the supervised job pool. Open resumes the state directory,
// starts the workers, and the HTTP layer in http.go exposes it.
type Server struct {
	cfg    Config
	reg    *metrics.Registry
	store  *checkpoint.Store
	ledger *jobJournal

	// runCtx is the parent of every job's run context; runCancel fires when
	// drain exceeds its grace (hard-cancelling in-flight grids).
	runCtx    context.Context
	runCancel context.CancelFunc
	// drainCh closes the moment drain begins, stopping the GC sweeper.
	drainCh chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []string
	queue    []*job
	working  []*job // per-worker slot: the job each pool worker is on (nil = idle)
	weight   int
	seq      int
	draining bool
	closed   bool

	// lastGC snapshots the most recent GC run for /statusz.
	lastGC   GCStats
	lastGCAt time.Time
	gcRan    bool

	wg sync.WaitGroup
}

// Open resumes (or creates) the daemon state in cfg.Dir and starts the
// worker pool. The job journal replays first: terminal jobs come back
// servable (state, output, error), and every job that was accepted but not
// terminal — queued or running when the process died — is re-queued in
// submission order with Resumed set, counted under
// jobs/resumed. Their grids replay finished cells from the shared
// checkpoint store, so a SIGKILL costs at most the cells that were in
// flight.
func Open(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create dir: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "traces"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create traces dir: %w", err)
	}
	store, err := checkpoint.Resume(filepath.Join(cfg.Dir, "cells"))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Metrics,
		store:   store,
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	for _, name := range counterNames {
		s.reg.Counter(name)
	}

	ledger, err := resumeJobJournal(cfg.Dir, s.replay)
	if err != nil {
		store.Close()
		return nil, err
	}
	s.ledger = ledger

	// Re-queue the interrupted jobs in submission order.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.state = StateQueued
		j.resumed = true
		s.queue = append(s.queue, j)
		s.weight += j.spec.weight()
		s.reg.Counter("jobs/resumed").Inc()
	}

	s.working = make([]*job, cfg.Workers)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker(w)
	}
	if cfg.GCInterval > 0 {
		s.wg.Add(1)
		go s.gcSweeper()
	}
	return s, nil
}

// replay applies one journal event during Open.
func (s *Server) replay(ev jobEvent) {
	switch ev.Kind {
	case "submit":
		j := &job{
			id:    ev.ID,
			spec:  *ev.Spec,
			seqNo: ev.Seq,
			state: StateQueued,
			subs:  make(map[int]chan Event),
		}
		if _, dup := s.jobs[ev.ID]; dup {
			return
		}
		s.jobs[ev.ID] = j
		s.order = append(s.order, ev.ID)
		if ev.Seq > s.seq {
			s.seq = ev.Seq
		}
	case "done", "failed", "cancelled":
		j, ok := s.jobs[ev.ID]
		if !ok {
			return
		}
		switch ev.Kind {
		case "done":
			j.state = StateDone
			j.output = ev.Output
		case "failed":
			j.state = StateFailed
			j.lastErr = ev.Error
		case "cancelled":
			j.state = StateCancelled
			j.lastErr = ev.Error
		}
		j.doneAt = ev.DoneMs
	case "seq":
		// GC compaction's allocator pin: dropping the oldest submit records
		// must not let a restart re-issue their ids.
		if ev.Seq > s.seq {
			s.seq = ev.Seq
		}
	}
}

// Store exposes the shared checkpoint store (metrics/introspection).
func (s *Server) Store() *checkpoint.Store { return s.store }

// Metrics exposes the daemon registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// JournalTornBytes reports how many torn journal bytes Open's recovery
// dropped (0 for a clean start).
func (s *Server) JournalTornBytes() int64 { return s.ledger.tornBytes() }

// tracePath is where a Spec.Trace job's binary trace lives.
func (s *Server) tracePath(id string) string {
	return filepath.Join(s.cfg.Dir, "traces", id+".utb")
}

// TraceFile resolves a job's recorded trace: ErrNotFound for unknown jobs,
// *InvalidError when the job was not submitted with Spec.Trace, and
// os.ErrNotExist (wrapped) when tracing is on but no run has written the
// file yet.
func (s *Server) TraceFile(id string) (string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var traced bool
	if ok {
		traced = j.spec.Trace
	}
	s.mu.Unlock()
	if !ok {
		return "", ErrNotFound
	}
	if !traced {
		return "", &InvalidError{Reason: fmt.Sprintf("job %s was not submitted with trace recording", id)}
	}
	path := s.tracePath(id)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("jobs: trace for %s not recorded yet: %w", id, err)
	}
	return path, nil
}

// WorkerStatus is one pool worker's slot in the /statusz view.
type WorkerStatus struct {
	Worker int `json:"worker"`
	// Idle means the worker is waiting for the queue; the remaining fields
	// are zero.
	Idle bool   `json:"idle"`
	Job  string `json:"job,omitempty"`
	// Progress is the job's last grid progress: which experiment the worker
	// is inside and its done/total/failed cell counts.
	Progress *ProgressView `json:"progress,omitempty"`
}

// GCStatus is the retention/GC panel of /statusz: the configured policy and
// the last sweep's outcome.
type GCStatus struct {
	RetainAgeMs int64 `json:"retain_age_ms,omitempty"`
	RetainCount int   `json:"retain_count,omitempty"`
	RetainBytes int64 `json:"retain_bytes,omitempty"`
	IntervalMs  int64 `json:"interval_ms,omitempty"`
	// LastUnixMs is 0 until the first sweep.
	LastUnixMs int64    `json:"last_unix_ms,omitempty"`
	Last       *GCStats `json:"last,omitempty"`
}

// StatusView is the /statusz body: per-worker occupancy, queue pressure
// against the admission limits, job counts by state, the GC/retention
// panel, and the shedding/intake counters — the one-page answer to "what is
// the daemon doing right now".
type StatusView struct {
	Draining   bool             `json:"draining"`
	Workers    []WorkerStatus   `json:"workers"`
	QueueDepth int              `json:"queue_depth"`
	QueueCap   int              `json:"queue_cap"`
	Weight     int              `json:"weight"`
	MaxWeight  int              `json:"max_weight"`
	Jobs       map[State]int    `json:"jobs"`
	GC         GCStatus         `json:"gc"`
	Counters   map[string]int64 `json:"counters"`
}

// Status snapshots the pool for /statusz.
func (s *Server) Status() StatusView {
	s.mu.Lock()
	v := StatusView{
		Draining:   s.draining,
		Workers:    make([]WorkerStatus, len(s.working)),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		Weight:     s.weight,
		MaxWeight:  s.cfg.MaxWeight,
		Jobs:       make(map[State]int),
		GC: GCStatus{
			RetainAgeMs: s.cfg.RetainAge.Milliseconds(),
			RetainCount: s.cfg.RetainCount,
			RetainBytes: s.cfg.RetainBytes,
			IntervalMs:  s.cfg.GCInterval.Milliseconds(),
		},
	}
	if s.gcRan {
		last := s.lastGC
		v.GC.Last = &last
		v.GC.LastUnixMs = s.lastGCAt.UnixMilli()
	}
	for w, j := range s.working {
		ws := WorkerStatus{Worker: w, Idle: j == nil}
		if j != nil {
			ws.Job = j.id
			if j.prog != nil {
				p := *j.prog
				ws.Progress = &p
			}
		}
		v.Workers[w] = ws
	}
	for _, j := range s.jobs {
		v.Jobs[j.state]++
	}
	s.mu.Unlock()
	v.Counters = make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		v.Counters[name] = s.reg.CounterValue(name)
	}
	return v
}

// Draining reports whether graceful shutdown has begun (readyz flips on it).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit validates and accepts one job: journalled before the call returns,
// so an acknowledged job survives any crash. Returns ErrDraining during
// shutdown and ErrBusy when the queue depth or in-flight cell-weight budget
// would be exceeded — the load-shedding contract that keeps the daemon's
// memory bounded under submission floods.
func (s *Server) Submit(spec Spec) (JobView, error) {
	if err := spec.validate(&s.cfg); err != nil {
		s.reg.Counter("jobs/rejected").Inc()
		return JobView{}, err
	}
	if spec.Trace {
		// Fail trace jobs at admission, not mid-run: a submission that
		// can never record its trace should be refused while the client is
		// still on the line.
		if err := s.traceWritable(); err != nil {
			s.reg.Counter("jobs/rejected").Inc()
			return JobView{}, err
		}
	}
	w := spec.weight()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobView{}, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return JobView{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth || s.weight+w > s.cfg.MaxWeight {
		s.mu.Unlock()
		s.reg.Counter("jobs/shed").Inc()
		return JobView{}, ErrBusy
	}
	s.seq++
	j := &job{
		id:    fmt.Sprintf("j-%06d", s.seq),
		spec:  spec,
		seqNo: s.seq,
		state: StateQueued,
		subs:  make(map[int]chan Event),
	}
	if err := s.ledger.append(jobEvent{Kind: "submit", ID: j.id, Seq: s.seq, Spec: &spec}); err != nil {
		s.mu.Unlock()
		s.reg.Counter("jobs/journal-errors").Inc()
		return JobView{}, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.weight += w
	s.reg.Gauge("jobs/weight-high-water").SetMax(int64(s.weight))
	s.reg.Gauge("jobs/queue-high-water").SetMax(int64(len(s.queue)))
	view := j.view()
	s.cond.Signal()
	s.mu.Unlock()
	s.reg.Counter("jobs/accepted").Inc()
	return view, nil
}

// traceWritable probes the traces directory with a create+remove round
// trip, wrapping any failure in ErrTraceUnavailable (HTTP 503). A probe
// file (not a permission-bit check) is deliberate: it is the same operation
// the run will perform and stays honest under privileged users, ACLs
// and read-only mounts.
func (s *Server) traceWritable() error {
	f, err := os.CreateTemp(filepath.Join(s.cfg.Dir, "traces"), ".probe-*")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTraceUnavailable, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// View returns the snapshot of one job.
func (s *Server) View(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.view(), nil
}

// List returns every job in submission order.
func (s *Server) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Result returns a terminal job's rendered output (DONE) or its last error
// (FAILED/CANCELLED). Non-terminal jobs report their current state.
func (s *Server) Result(id string) (output string, state State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", "", ErrNotFound
	}
	return j.output, j.state, nil
}

// Cancel cancels one job: a queued job goes terminal immediately, a running
// one has its grid cancelled (completed cells stay checkpointed) and goes
// terminal when the run unwinds.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, ErrNotFound
	}
	if j.state.Terminal() {
		view := j.view()
		s.mu.Unlock()
		return view, ErrTerminal
	}
	j.cancelReq = true
	if j.runCancel != nil {
		j.runCancel()
	}
	// A job still in the queue is cancelled synchronously — no worker will
	// ever pick it up.
	wasQueued := false
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			wasQueued = true
			break
		}
	}
	s.mu.Unlock()
	if wasQueued {
		s.finish(j, StateCancelled, "", "cancelled before start")
	}
	return s.View(id)
}

// Subscribe attaches a live event stream to a job: the current state is
// delivered first, then transitions and grid progress as they happen; the
// channel closes after the terminal event. The returned cancel detaches.
// Slow consumers lose events rather than block the pool (buffer 64).
func (s *Server) Subscribe(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, 64)
	ch <- Event{Type: "state", Job: j.id, State: j.state, Error: j.lastErr}
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.subSeq++
	key := j.subSeq
	j.subs[key] = ch
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, live := j.subs[key]; live {
			delete(j.subs, key)
			close(ch)
		}
	}
	return ch, cancel, nil
}

// publishLocked fans an event out to the job's subscribers; the caller
// holds the server mutex. Sends never block: a full subscriber buffer drops
// the event (progress is advisory; the terminal state also closes the
// channel, which cannot be missed).
func (s *Server) publishLocked(j *job, ev Event) {
	ev.Job = j.id
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (s *Server) closeSubsLocked(j *job) {
	for k, ch := range j.subs {
		delete(j.subs, k)
		close(ch)
	}
}

// worker is one pool goroutine: pop, supervise, repeat. Drain stops the
// popping — queued jobs stay journalled-but-not-terminal, which is exactly
// the set the next start re-queues. Each worker publishes the job it is on
// through its working slot, the per-worker state /statusz serves.
func (s *Server) worker(w int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			if s.draining {
				s.mu.Unlock()
				return
			}
			if j = s.popLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		s.working[w] = j
		s.mu.Unlock()
		s.supervise(j)
		s.mu.Lock()
		s.working[w] = nil
		s.mu.Unlock()
	}
}

// popLocked takes the head of the queue, so jobs start in submission
// order, or returns nil when the queue is empty. Caller holds the server
// mutex.
func (s *Server) popLocked() *job {
	if len(s.queue) == 0 {
		return nil
	}
	j := s.queue[0]
	s.queue = append(s.queue[:0], s.queue[1:]...)
	return j
}

// supervise runs the job once under its deadline and maps the outcome to
// DONE, CANCELLED (client cancel), a park (drain) or FAILED (any other
// error, a deadline overrun included). A failed job is not retried: its
// cells are pure functions of their coordinates, so a rerun would fail
// again, and resubmitting the spec replays every cell the run committed to
// the store.
func (s *Server) supervise(j *job) {
	out, err := s.run(j)
	s.mu.Lock()
	cancelReq, draining := j.cancelReq, s.draining
	s.mu.Unlock()
	switch {
	case err == nil:
		s.finish(j, StateDone, out, "")
	case cancelReq:
		s.finish(j, StateCancelled, "", err.Error())
	case draining || s.runCtx.Err() != nil:
		// Any error during drain parks the job: the restart re-runs it with
		// the checkpoint store primed.
		s.park(j)
	default:
		s.finish(j, StateFailed, "", err.Error())
	}
}

// run marks the job RUNNING and executes it under its deadline, parented on
// the server run context so a post-grace drain cancels it too.
func (s *Server) run(j *job) (string, error) {
	ctx, cancel := context.WithTimeout(s.runCtx, j.spec.deadline(&s.cfg))
	defer cancel()
	s.mu.Lock()
	j.state = StateRunning
	j.runCancel = cancel
	cancelReq := j.cancelReq
	s.publishLocked(j, Event{Type: "state", State: StateRunning})
	s.mu.Unlock()
	if cancelReq {
		return "", context.Canceled
	}
	rc := RunContext{
		Checkpoint: s.store,
		Progress: func(p experiment.Progress) {
			s.progress(j, p)
		},
	}
	if j.spec.Trace {
		rc.TracePath = s.tracePath(j.id)
	}
	return s.cfg.Runner(ctx, j.spec, rc)
}

// finish journals and publishes a terminal state, releasing the job's
// admission weight and closing its event streams. The ledger append happens
// under the server mutex: GC holds the same mutex while it snapshots the
// job table and rewrites the ledger, so a terminal event either lands
// before the snapshot (and is part of the rewrite) or appends to the
// rewritten journal — never into the file the rewrite is about to replace.
func (s *Server) finish(j *job, st State, out, errStr string) {
	kind := map[State]string{
		StateDone: "done", StateFailed: "failed", StateCancelled: "cancelled",
	}[st]
	doneAt := time.Now().UnixMilli()
	s.mu.Lock()
	if err := s.ledger.append(jobEvent{Kind: kind, ID: j.id, Output: out, Error: errStr, DoneMs: doneAt}); err != nil {
		// The in-memory state is still authoritative for this process; the
		// next start will re-run the job, which the checkpoint store makes
		// cheap.
		s.reg.Counter("jobs/journal-errors").Inc()
	}
	j.state = st
	j.output = out
	j.lastErr = errStr
	j.doneAt = doneAt
	j.runCancel = nil
	s.weight -= j.spec.weight()
	s.publishLocked(j, Event{Type: "state", State: st, Error: errStr})
	s.closeSubsLocked(j)
	s.mu.Unlock()
	if st == StateCancelled && j.spec.Trace {
		// DELETE semantics: a cancelled job's recorded trace is unlinked
		// with it (tolerating ENOENT — queued jobs never wrote one). DONE
		// and FAILED traces stay queryable until retention collects them.
		os.Remove(s.tracePath(j.id))
	}
	switch st {
	case StateDone:
		s.reg.Counter("jobs/done").Inc()
	case StateFailed:
		s.reg.Counter("jobs/failed").Inc()
	case StateCancelled:
		s.reg.Counter("jobs/cancelled").Inc()
	}
}

// park returns an interrupted job to QUEUED without a terminal journal
// record: the next start finds the submit record unterminated and re-queues
// it — the crash-safe "checkpoint the job" half of drain.
func (s *Server) park(j *job) {
	s.mu.Lock()
	j.state = StateQueued
	j.runCancel = nil
	s.publishLocked(j, Event{Type: "state", State: StateQueued})
	s.mu.Unlock()
	s.reg.Counter("jobs/drained").Inc()
}

// progress records and publishes one grid progress update.
func (s *Server) progress(j *job, p experiment.Progress) {
	s.mu.Lock()
	j.prog = &ProgressView{Experiment: p.Experiment, Done: p.Done, Total: p.Total, Failed: p.Failed}
	s.publishLocked(j, Event{
		Type:       "progress",
		Experiment: p.Experiment, Done: p.Done, Total: p.Total, Failed: p.Failed,
	})
	s.mu.Unlock()
}

// Drain performs graceful shutdown: stop accepting and popping, give
// running jobs DrainGrace to finish (their results journal as usual), then
// cancel their grids — completed cells stay checkpointed and the jobs park
// for the next start — and finally fsync both journals. Safe to call more
// than once; later calls just wait for the first to finish.
func (s *Server) Drain() error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		close(s.drainCh)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	grace := time.AfterFunc(s.cfg.DrainGrace, s.runCancel)
	s.wg.Wait()
	grace.Stop()
	s.runCancel()

	var firstErr error
	if err := s.store.Sync(); err != nil {
		firstErr = err
	}
	if err := s.ledger.sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return firstErr
}

// Close releases the journal handles. Call after Drain.
func (s *Server) Close() error {
	err := s.store.Close()
	if cerr := s.ledger.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
