package jobs

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"udwn/internal/checkpoint"
)

// The job journal is the daemon's accepted-work ledger, layered on the same
// torn-write-safe framed container as the checkpoint store
// (checkpoint.Journal): one JSON event per frame, appended with a single
// write, recovered as the longest valid prefix. Two event kinds matter:
//
//   - "submit" commits an accepted job (id + spec) before the accept
//     response is sent, so an acknowledged job can never be lost;
//   - "done" / "failed" / "cancelled" commit the terminal outcome together
//     with the job's output or last error (and the terminal wall-clock
//     instant, which the retention sweeper ranks jobs by);
//   - "seq" pins the id allocator's high-water mark, written by GC
//     compaction so dropping the oldest submit records can never recycle a
//     job id.
//
// A job with a submit record and no terminal record is exactly the set a
// crash can interrupt — on restart those jobs re-queue as resumed, and
// their grids replay every finished cell from the shared checkpoint store.
//
// The ledger is bounded by GC compaction (see gc.go): rewrite() atomically
// replaces the whole file with the retained events via the container's
// temp-file + fsync + rename discipline, so a SIGKILL at any byte leaves
// either the old or the new ledger fully valid.

const journalName = "jobs.journal"

// jobEvent is one journal frame.
type jobEvent struct {
	Kind string `json:"kind"` // "submit" | "done" | "failed" | "cancelled" | "seq"
	ID   string `json:"id"`
	// Seq restores the id allocator on replay (submit and seq events).
	Seq  int   `json:"seq,omitempty"`
	Spec *Spec `json:"spec,omitempty"`
	// Output is the job's rendered result (done events only), kept in the
	// journal so /jobs/{id}/result keeps serving across restarts.
	Output string `json:"output,omitempty"`
	// Error is the job's error (failed and cancelled events only).
	Error string `json:"error,omitempty"`
	// DoneMs is the terminal transition's wall clock (Unix milliseconds,
	// terminal events only) — what orders Config.RetainCount's collection
	// after a restart.
	DoneMs int64 `json:"done_ms,omitempty"`
}

// jobJournal wraps the framed container with the event encoding.
type jobJournal struct {
	j *checkpoint.Journal
}

// resumeJobJournal recovers the ledger in dir, passing every valid event to
// replay in append order. A frame that is not a well-formed event ends the
// valid prefix and is truncated away with everything after it, exactly like
// a torn tail.
func resumeJobJournal(dir string, replay func(jobEvent)) (*jobJournal, error) {
	j, err := checkpoint.ResumeJournal(filepath.Join(dir, journalName), func(payload []byte) bool {
		var ev jobEvent
		if err := json.Unmarshal(payload, &ev); err != nil || ev.ID == "" {
			return false
		}
		switch ev.Kind {
		case "submit":
			if ev.Spec == nil {
				return false
			}
		case "done", "failed", "cancelled", "seq":
		default:
			return false
		}
		replay(ev)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &jobJournal{j: j}, nil
}

// append commits one event with a single framed write.
func (l *jobJournal) append(ev jobEvent) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("jobs: encode journal event: %w", err)
	}
	if err := l.j.Append(payload); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// rewrite atomically replaces the ledger's contents with the given events —
// GC compaction's durable step. Inherits checkpoint.Journal.Rewrite's
// old-or-new crash guarantee.
func (l *jobJournal) rewrite(evs []jobEvent) error {
	payloads := make([][]byte, 0, len(evs))
	for _, ev := range evs {
		payload, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("jobs: encode journal event: %w", err)
		}
		payloads = append(payloads, payload)
	}
	if err := l.j.Rewrite(payloads); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// size reports the ledger's on-disk length.
func (l *jobJournal) size() (int64, error) { return l.j.Size() }

func (l *jobJournal) sync() error  { return l.j.Sync() }
func (l *jobJournal) close() error { return l.j.Close() }

// tornBytes reports the invalid tail recovery dropped.
func (l *jobJournal) tornBytes() int64 { return l.j.TornBytes() }
