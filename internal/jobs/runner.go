package jobs

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"udwn/internal/checkpoint"
	"udwn/internal/experiment"
	"udwn/internal/trace"
)

// RunContext carries the per-attempt environment the server hands a Runner:
// the shared checkpoint store (the cross-job result cache), the progress
// sink feeding the job's event stream, and the trace path.
type RunContext struct {
	// Checkpoint is the daemon-wide content-addressed cell store; nil when
	// the server runs without one (tests).
	Checkpoint *checkpoint.Store
	// Progress receives grid progress; may be nil.
	Progress func(experiment.Progress)
	// TracePath, when non-empty, asks the runner to record the attempt's
	// slot events as an indexed binary trace at that path (set by the server
	// for Spec.Trace jobs). The framed format keeps every flushed prefix
	// readable, so the file is queryable while the attempt is still running.
	TracePath string
}

// Runner executes one job attempt and returns the rendered output. An error
// fails the attempt (the supervisor retries within the job's budget); a
// context-cancellation error is classified by the supervisor into deadline,
// drain or client-cancel outcomes. Runners must be safe for concurrent use
// by pool workers.
type Runner func(ctx context.Context, spec Spec, rc RunContext) (string, error)

// ExperimentRunner returns the production Runner: it executes the spec's
// experiments in order on the experiment grid — gridWorkers concurrent
// cells, the given per-cell deadline, cellRetries retries per cell —
// writing through the shared checkpoint store so finished cells are
// computed once daemon-wide.
// The grid runs with HardCancel: when ctx fires (deadline, drain past
// grace, client cancel) in-flight simulations stop at their next tick,
// completed cells stay checkpointed, and the attempt returns ctx's error.
// The grid runs without a metrics registry: nothing reads a job's simulator
// counters (/metricsz and /statusz read the server's own registry), so
// simulations skip their per-slot instrumentation and checkpoint records
// carry no metrics snapshot.
//
// Output is the same rendered text cmd/experiments prints for the same
// options, and — because every grid cell is a pure function of its
// coordinates — byte-identical across retries, restarts and worker counts.
func ExperimentRunner(gridWorkers int, cellTimeout time.Duration) Runner {
	return func(ctx context.Context, spec Spec, rc RunContext) (out string, err error) {
		o := experiment.Options{
			Seeds:       spec.Seeds,
			Quick:       spec.Quick,
			Workers:     gridWorkers,
			CellTimeout: cellTimeout,
			Retries:     cellRetries,
			Report:      experiment.NewRunReport(),
			Checkpoint:  rc.Checkpoint,
			Progress:    rc.Progress,
			Context:     ctx,
			HardCancel:  true,
		}
		if rc.TracePath != "" {
			f, ferr := os.Create(rc.TracePath)
			if ferr != nil {
				return "", fmt.Errorf("jobs: create trace: %w", ferr)
			}
			bw := trace.NewBinary(f)
			o.Observer = trace.LockedObserver(bw)
			// Declared before the recover below, so this runs after it: the
			// trace flushes even when the grid is cancelled mid-attempt,
			// leaving a valid (torn-tail-recoverable) prefix on disk.
			defer func() {
				if fe := bw.Flush(); fe != nil && err == nil {
					err = fmt.Errorf("jobs: flush trace: %w", fe)
				}
				if ce := f.Close(); ce != nil && err == nil {
					err = fmt.Errorf("jobs: close trace: %w", ce)
				}
			}()
		}
		defer func() {
			switch p := recover().(type) {
			case nil:
			case experiment.Cancelled:
				// The grid drained its in-flight cells and stopped; report
				// the cause (deadline vs cancellation) with the progress at
				// the moment of interruption.
				err = fmt.Errorf("%s: %w", p, context.Cause(ctx))
			default:
				err = fmt.Errorf("jobs: runner panic: %v", p)
			}
		}()
		var b strings.Builder
		for _, id := range spec.Experiments {
			e, ok := experiment.Lookup(id)
			if !ok {
				return "", &InvalidError{Reason: fmt.Sprintf("unknown experiment %q", id)}
			}
			fmt.Fprintf(&b, "=== %s: %s ===\n%s\n", e.ID, e.Title, e.Run(o))
		}
		return b.String(), nil
	}
}
