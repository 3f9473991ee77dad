package jobs

import (
	"os"
	"sort"
	"time"

	"udwn/internal/checkpoint"
)

// Garbage collection is what keeps the daemon's durable state bounded: the
// job ledger and the checkpoint journal are append-only (crash safety
// demands it), so without a sweeper both — plus the per-job trace files —
// grow forever. GC applies the Config.RetainCount policy to terminal jobs,
// unlinks their traces, compacts the ledger via an atomic whole-file
// rewrite, and drops checkpoint records no live or resumable job
// references.
//
// Crash-safety contract. The sweep holds the server mutex end to end and
// orders its effects so a SIGKILL at any instant loses nothing retention
// wanted kept:
//
//  1. trace unlink first — a crash here leaves a job record whose trace is
//     gone, which the trace endpoint already reports as "not recorded yet"
//     and the next sweep re-collects (ENOENT is tolerated);
//  2. ledger rewrite (checkpoint.Journal.Rewrite: temp file + fsync +
//     atomic rename) — a crash leaves either the old or the new ledger
//     fully valid, and the rewrite always opens with a "seq" event pinning
//     the id allocator so dropped submit records can never recycle ids;
//  3. only after the rewrite is durable are the expired jobs forgotten in
//     memory;
//  4. checkpoint compaction last, with the same rewrite discipline — its
//     keep set is the experiments of non-terminal jobs, so a resumable job
//     still replays every finished cell (zero recompute) after any crash.
//
// Because finish() appends terminal events under the same mutex, a sweep
// can never rewrite the ledger out from under a concurrent terminal
// transition: the event is either part of the snapshot or appends to the
// rewritten file.

// GCStats reports one sweep, served by POST /gc and /statusz.
type GCStats struct {
	// JobsCollected and JobsKept count terminal job records dropped and
	// jobs (any state) surviving the sweep.
	JobsCollected int `json:"jobs_collected"`
	JobsKept      int `json:"jobs_kept"`
	// TracesRemoved counts trace files unlinked; TraceBytesRemoved their
	// total size.
	TracesRemoved     int   `json:"traces_removed"`
	TraceBytesRemoved int64 `json:"trace_bytes_removed"`
	// LedgerBytes{Before,After} bracket the ledger rewrite.
	LedgerBytesBefore int64 `json:"ledger_bytes_before"`
	LedgerBytesAfter  int64 `json:"ledger_bytes_after"`
	// Cells{Kept,Dropped} and CellBytes{Before,After} bracket the
	// checkpoint-store compaction.
	CellsKept       int   `json:"cells_kept"`
	CellsDropped    int   `json:"cells_dropped"`
	CellBytesBefore int64 `json:"cell_bytes_before"`
	CellBytesAfter  int64 `json:"cell_bytes_after"`
}

// gcTestHook, when non-nil, fires between GC's effect stages ("traces-
// removed", "ledger-rewritten", "store-compacted") so the re-exec crash
// harness can SIGKILL the process at each one; production code leaves it
// nil. checkpoint.RewriteTestHook covers the byte-level stages inside the
// two rewrites.
var gcTestHook func(stage string)

// GC runs one retention sweep (see the package comment above for the
// ordering contract). With RetainCount zero it still compacts both
// journals — squeezing duplicate and superseded frames — but collects
// nothing. Safe to call concurrently with submissions and running jobs.
func (s *Server) GC() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return GCStats{}, ErrClosed
	}
	var st GCStats
	if size, err := s.ledger.size(); err == nil {
		st.LedgerBytesBefore = size
	}

	expired := s.expiredLocked()

	// Stage 1: traces of expired jobs.
	for j := range expired {
		path := s.tracePath(j.id)
		if fi, err := os.Stat(path); err == nil {
			st.TraceBytesRemoved += fi.Size()
		}
		if err := os.Remove(path); err == nil {
			st.TracesRemoved++
		}
	}
	if gcTestHook != nil {
		gcTestHook("traces-removed")
	}

	// Stage 2: rewrite the ledger without the expired jobs. The "seq" event
	// pins the id allocator even when the newest submit record is dropped.
	evs := []jobEvent{{Kind: "seq", ID: "allocator", Seq: s.seq}}
	kinds := map[State]string{StateDone: "done", StateFailed: "failed", StateCancelled: "cancelled"}
	keptOrder := make([]string, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if expired[j] {
			continue
		}
		keptOrder = append(keptOrder, id)
		spec := j.spec
		evs = append(evs, jobEvent{Kind: "submit", ID: j.id, Seq: j.seqNo, Spec: &spec})
		if j.state.Terminal() {
			evs = append(evs, jobEvent{
				Kind: kinds[j.state], ID: j.id, Output: j.output,
				Error: j.lastErr, DoneMs: j.doneAt,
			})
		}
	}
	if err := s.ledger.rewrite(evs); err != nil {
		// The old ledger is intact (rewrite is atomic); nothing was
		// forgotten, so the sweep simply failed.
		s.reg.Counter("jobs/journal-errors").Inc()
		return st, err
	}
	if gcTestHook != nil {
		gcTestHook("ledger-rewritten")
	}

	// Stage 3: the rewrite is durable — now forget the expired jobs.
	for j := range expired {
		delete(s.jobs, j.id)
		st.JobsCollected++
	}
	s.order = keptOrder
	st.JobsKept = len(s.order)
	if size, err := s.ledger.size(); err == nil {
		st.LedgerBytesAfter = size
	}

	// Stage 4: compact the checkpoint store. Under a retention policy the
	// keep set is the experiments of live/resumable (non-terminal) jobs —
	// exactly what a post-crash resume needs for zero recompute; without
	// one, keep everything (the compaction still squeezes duplicates).
	var keep func(*checkpoint.Record) bool
	if s.cfg.RetainCount > 0 {
		live := make(map[string]bool)
		for _, id := range s.order {
			if j := s.jobs[id]; !j.state.Terminal() {
				for _, e := range j.spec.Experiments {
					live[e] = true
				}
			}
		}
		keep = func(r *checkpoint.Record) bool { return live[r.Experiment] }
	}
	cst, err := s.store.Compact(keep)
	st.CellsKept = cst.Kept
	st.CellsDropped = cst.Dropped
	st.CellBytesBefore = cst.BytesBefore
	st.CellBytesAfter = cst.BytesAfter
	if err != nil {
		return st, err
	}
	if gcTestHook != nil {
		gcTestHook("store-compacted")
	}

	s.reg.Counter("jobs/gc/runs").Inc()
	s.reg.Counter("jobs/gc/collected").Add(int64(st.JobsCollected))
	s.reg.Counter("jobs/gc/traces-removed").Add(int64(st.TracesRemoved))
	s.reg.Counter("checkpoint/gc/compactions").Inc()
	s.reg.Counter("checkpoint/gc/dropped").Add(int64(st.CellsDropped))
	s.lastGC = st
	s.lastGCAt = time.Now()
	s.gcRan = true
	return st, nil
}

// expiredLocked selects the terminal jobs the retention policy gives up:
// all but the newest RetainCount by completion time, ties broken by
// submission order. Non-terminal jobs are never candidates. Caller holds
// the server mutex.
func (s *Server) expiredLocked() map[*job]bool {
	expired := make(map[*job]bool)
	var terminal []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state.Terminal() {
			terminal = append(terminal, j)
		}
	}
	n := s.cfg.RetainCount
	if n <= 0 || len(terminal) <= n {
		return expired
	}
	sort.Slice(terminal, func(a, b int) bool {
		if terminal[a].doneAt != terminal[b].doneAt {
			return terminal[a].doneAt < terminal[b].doneAt
		}
		return terminal[a].seqNo < terminal[b].seqNo
	})
	for _, j := range terminal[:len(terminal)-n] {
		expired[j] = true
	}
	return expired
}

// gcPeriod is the background sweeper's period; a variable only so a test
// can shorten it.
var gcPeriod = time.Minute

// gcSweeper is the background retention loop Open starts when RetainCount
// is set: one GC per gcPeriod until drain. Sweep errors are reflected in
// the jobs/journal-errors counter and the next sweep retries.
func (s *Server) gcSweeper() {
	defer s.wg.Done()
	t := time.NewTicker(gcPeriod)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.GC()
		case <-s.drainCh:
			return
		}
	}
}
