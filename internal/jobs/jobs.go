// Package jobs is the sim-as-a-service layer: a supervised, crash-safe pool
// of experiment jobs behind an HTTP/JSON API (cmd/udwnd).
//
// Every failure mode is a first-class state. A submitted job moves through
//
//	QUEUED → RUNNING → DONE
//	            │  ↘ BACKOFF → RUNNING (bounded retries, exponential
//	            │                       backoff with seed-deterministic jitter)
//	            │  → FAILED    (retry budget exhausted; carries the last error)
//	            └─ → CANCELLED (client cancel)
//
// and the transitions are journalled (submit and terminal records) through
// the same torn-write-safe framed container the checkpoint store uses, so a
// SIGKILL at any instant loses nothing that was acknowledged: on restart the
// journal replays, non-terminal jobs re-queue as resumed, and their grids
// replay finished cells from the shared content-addressed checkpoint store —
// byte-identical output, zero recompute.
//
// The accept path is load-shedding rather than unbounded: once queue depth
// or the in-flight cell-weight budget is exceeded, submissions are refused
// with ErrBusy (HTTP 429 + Retry-After ≥ 1) instead of growing memory, and
// the workers run accepted jobs in submission order. SIGTERM triggers
// graceful drain: accepting stops (readyz flips), running jobs get a grace
// period to finish before their grids are cancelled (completed cells stay
// checkpointed), queued jobs park for the next start, journals flush, and
// the daemon exits 0.
//
// Durable state is bounded, not append-forever: the retention policy
// (Config.Retain{Age,Count,Bytes}) drives a GC sweeper (see gc.go) that
// collects terminal jobs past retention, unlinks their traces, and
// atomically compacts both journals without ever widening the crash window.
package jobs

import (
	"errors"
	"fmt"
	"time"

	"udwn/internal/experiment"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued means the job is accepted and journalled, waiting for a
	// pool worker (also the state resumed jobs re-enter after a restart).
	StateQueued State = "QUEUED"
	// StateRunning means a pool worker is executing the job's experiments.
	StateRunning State = "RUNNING"
	// StateBackoff means the last attempt failed and the supervisor is
	// waiting out the retry delay.
	StateBackoff State = "BACKOFF"
	// StateDone is terminal success: the rendered output is available.
	StateDone State = "DONE"
	// StateFailed is terminal failure: the retry budget is exhausted and
	// the record carries the last error.
	StateFailed State = "FAILED"
	// StateCancelled is terminal client cancellation.
	StateCancelled State = "CANCELLED"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is a job submission: which experiments to run and how.
type Spec struct {
	// Experiments lists experiment ids (see experiment.All) to run in
	// order; the job's output is their concatenated rendered results.
	Experiments []string `json:"experiments"`
	// Seeds is the number of repetitions per grid cell (0 → 1).
	Seeds int `json:"seeds,omitempty"`
	// Quick selects the reduced sizes used by tests and smoke runs.
	Quick bool `json:"quick,omitempty"`
	// DeadlineMs bounds one attempt's wall clock; 0 uses the server
	// default, and values above the server maximum are rejected. A
	// deadline overrun cancels the attempt's grid (finished cells stay
	// checkpointed, so a retry resumes instead of starting over).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Retries is the job-level retry budget after a failed attempt;
	// values above the server maximum are rejected.
	Retries int `json:"retries,omitempty"`
	// Seed keys the retry backoff jitter, making the supervisor's delay
	// sequence a pure function of the submission.
	Seed uint64 `json:"seed,omitempty"`
	// Trace records the job's slot events as an indexed binary trace under
	// the daemon state directory, served (and queried) by
	// GET /jobs/{id}/trace. Each attempt rewrites the file, so the trace
	// always reflects the attempt that produced the job's output.
	Trace bool `json:"trace,omitempty"`
}

// The limits one submission may request, and the per-cell retry budget
// every job grid runs with.
const (
	maxSeeds    = 64
	maxRetries  = 5
	maxDeadline = 15 * time.Minute
	cellRetries = 1
)

// weight is the spec's admission cost against the server's in-flight
// cell-weight budget: declared experiments × seed repetitions, a cheap
// submission-time proxy for the number of grid cells the job will schedule.
func (s Spec) weight() int {
	seeds := s.Seeds
	if seeds < 1 {
		seeds = 1
	}
	return len(s.Experiments) * seeds
}

// validate normalizes the spec in place against the server limits and
// returns an *InvalidError describing the first violation.
func (s *Spec) validate(cfg *Config) error {
	if len(s.Experiments) == 0 {
		return &InvalidError{Reason: "spec names no experiments"}
	}
	for _, id := range s.Experiments {
		if _, ok := experiment.Lookup(id); !ok {
			return &InvalidError{Reason: fmt.Sprintf("unknown experiment %q", id)}
		}
	}
	if s.Seeds < 0 {
		return &InvalidError{Reason: fmt.Sprintf("seeds %d is negative", s.Seeds)}
	}
	if s.Seeds > maxSeeds {
		return &InvalidError{Reason: fmt.Sprintf("seeds %d exceeds the limit %d", s.Seeds, maxSeeds)}
	}
	// A spec heavier than the weight budget would shed with 429 forever; it
	// can never be admitted, so it is invalid.
	if w := s.weight(); w > cfg.MaxWeight {
		return &InvalidError{Reason: fmt.Sprintf("weight %d exceeds the in-flight budget %d", w, cfg.MaxWeight)}
	}
	if s.Retries < 0 {
		return &InvalidError{Reason: fmt.Sprintf("retries %d is negative", s.Retries)}
	}
	if s.Retries > maxRetries {
		return &InvalidError{Reason: fmt.Sprintf("retries %d exceeds the limit %d", s.Retries, maxRetries)}
	}
	if s.DeadlineMs < 0 {
		return &InvalidError{Reason: fmt.Sprintf("deadline %dms is negative", s.DeadlineMs)}
	}
	if d := time.Duration(s.DeadlineMs) * time.Millisecond; d > maxDeadline {
		return &InvalidError{Reason: fmt.Sprintf("deadline %s exceeds the limit %s", d, maxDeadline)}
	}
	return nil
}

// deadline resolves the spec's per-attempt deadline against the server
// defaults.
func (s Spec) deadline(cfg *Config) time.Duration {
	if s.DeadlineMs > 0 {
		return time.Duration(s.DeadlineMs) * time.Millisecond
	}
	return cfg.DefaultDeadline
}

// ProgressView is the last grid progress a job reported: which experiment
// of the job is running and its done/total/failed cell counts.
type ProgressView struct {
	Experiment string `json:"experiment"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Failed     int    `json:"failed,omitempty"`
}

// JobView is the JSON snapshot of one job the API serves. Output is
// deliberately excluded (served by /jobs/{id}/result).
type JobView struct {
	ID       string        `json:"id"`
	State    State         `json:"state"`
	Spec     Spec          `json:"spec"`
	Attempts int           `json:"attempts"`
	Error    string        `json:"error,omitempty"`
	Resumed  bool          `json:"resumed,omitempty"`
	Progress *ProgressView `json:"progress,omitempty"`
}

// Event is one entry of a job's live event stream (served over SSE by
// /jobs/{id}/events): a state transition, a grid progress update, or the
// terminal outcome.
type Event struct {
	// Type is "state" for lifecycle transitions (State carries the new
	// state) or "progress" for grid progress updates.
	Type string `json:"type"`
	Job  string `json:"job"`
	// State is set on "state" events; terminal states end the stream.
	State State `json:"state,omitempty"`
	// Attempt is the supervisor attempt the event belongs to (0 before the
	// first run).
	Attempt int `json:"attempt,omitempty"`
	// Experiment/Done/Total/Failed carry grid progress on "progress"
	// events.
	Experiment string `json:"experiment,omitempty"`
	Done       int    `json:"done,omitempty"`
	Total      int    `json:"total,omitempty"`
	Failed     int    `json:"failed,omitempty"`
	// Error carries the last attempt's error on BACKOFF and FAILED states.
	Error string `json:"error,omitempty"`
}

// InvalidError rejects a malformed submission (HTTP 400).
type InvalidError struct{ Reason string }

func (e *InvalidError) Error() string { return "jobs: invalid spec: " + e.Reason }

// Sentinel errors of the accept path and the job registry; the HTTP layer
// maps them to status codes.
var (
	// ErrBusy sheds a submission that would exceed the queue depth or the
	// in-flight cell-weight budget (HTTP 429 + Retry-After).
	ErrBusy = errors.New("jobs: queue full, retry later")
	// ErrDraining refuses submissions during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("jobs: server is draining")
	// ErrNotFound reports an unknown job id (HTTP 404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal rejects cancelling an already-terminal job (HTTP 409).
	ErrTerminal = errors.New("jobs: job already terminal")
	// ErrClosed reports an operation on a server that has been drained.
	ErrClosed = errors.New("jobs: server closed")
	// ErrTraceUnavailable rejects a Spec.Trace submission when the traces
	// directory cannot be written (HTTP 503): the job would only discover
	// the problem mid-attempt, so admission refuses it up front.
	ErrTraceUnavailable = errors.New("jobs: trace recording unavailable")
)
