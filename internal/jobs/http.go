package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
	"udwn/internal/trace"
)

// The HTTP/JSON surface of the daemon. Routes:
//
//	POST   /jobs             submit a Spec    → 202 JobView | 400 | 429 | 503
//	GET    /jobs             list jobs        → 200 []JobView
//	GET    /jobs/{id}        job snapshot     → 200 JobView | 404
//	DELETE /jobs/{id}        cancel           → 200 JobView | 404 | 409
//	GET    /jobs/{id}/result terminal output  → 200 text | 404 | 409 | 202
//	GET    /jobs/{id}/events live SSE stream  → 200 text/event-stream | 404
//	GET    /jobs/{id}/trace  query the job's recorded trace
//	                         → 200 sub-trace | 400 | 404
//	POST   /gc               run a retention sweep → 200 GCStats | 503
//	GET    /healthz          liveness         → 200 always
//	GET    /readyz           readiness        → 200 | 503 while draining
//	GET    /metricsz         counters + checkpoint stats → 200 JSON
//	GET    /statusz          per-worker state + queue pressure → 200 JSON
//
// /jobs/{id}/trace serves the sub-trace a query (internal/trace grammar, e.g.
// ?query=node=3&tick=100-200) selects from a Spec.Trace job's recorded binary
// trace, re-encoded as a valid trace in ?format=binary (default) or jsonl.
// The planner's counters ride along as X-Trace-* headers, and a trace still
// being written answers from its last flushed prefix (X-Trace-Truncated).
//
// Error responses are JSON: {"error": "..."}.

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /gc", s.handleGC)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// httpError maps the package's sentinel errors onto the API contract.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	var inv *InvalidError
	switch {
	case errors.As(err, &inv):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrBusy):
		// The load-shedding contract: refuse with a retry hint instead of
		// queueing without bound. Clamped to ≥ 1: sub-second RetryAfter
		// configs used to round to "0", telling clients to hammer the
		// daemon mid-overload.
		secs := int(s.cfg.RetryAfter.Seconds() + 0.5)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrTraceUnavailable):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: decode spec: %w", err))
		return
	}
	view, err := s.Submit(spec)
	if err != nil {
		s.httpError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.View(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	out, state, err := s.Result(id)
	if err != nil {
		s.httpError(w, err)
		return
	}
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	case StateFailed, StateCancelled:
		view, _ := s.View(id)
		writeJSON(w, http.StatusConflict, view)
	default:
		// Not terminal yet: report progress so clients can poll the result
		// endpoint alone.
		view, _ := s.View(id)
		writeJSON(w, http.StatusAccepted, view)
	}
}

// handleEvents streams the job's events as Server-Sent Events: an initial
// state snapshot, then transitions and grid progress, ending after the
// terminal event. Each event is one `data: <JSON>` frame, flushed
// immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	defer cancel()
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return
			}
			enc.Encode(ev) // Encode appends the newline ending the frame
			fmt.Fprint(w, "\n")
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace answers a query over a job's recorded trace with a valid
// sub-trace. The planner's work counters go out as X-Trace-* headers (the
// sub-trace is buffered first, so the stats are complete before the status
// line) and accumulate in the daemon registry under trace/query/*.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	path, err := s.TraceFile(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		s.httpError(w, err)
		return
	}
	pred, err := trace.ParseQuery(r.URL.Query().Get("query"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var buf bytes.Buffer
	var tw trace.Writer
	contentType := "application/octet-stream"
	switch format := r.URL.Query().Get("format"); format {
	case "", "binary":
		bw := trace.NewBinary(&buf)
		bw.KeepSilent = true
		tw = bw
	case "jsonl":
		jw := trace.NewJSONL(&buf)
		jw.KeepSilent = true
		tw = jw
		contentType = "application/x-ndjson"
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("jobs: unknown trace format %q (want binary or jsonl)", format))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer f.Close()
	st, err := trace.Slice(f, pred, tw)
	if err != nil {
		if errors.Is(err, trace.ErrEmptyTrace) || errors.Is(err, trace.ErrHeaderOnly) {
			// The attempt created the file but has not flushed a frame yet.
			writeError(w, http.StatusNotFound, fmt.Errorf("jobs: trace has no events yet: %w", err))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	st.AddTo(s.reg)
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("X-Trace-Frames-Scanned", strconv.FormatInt(st.FramesScanned, 10))
	h.Set("X-Trace-Frames-Skipped", strconv.FormatInt(st.FramesSkipped, 10))
	h.Set("X-Trace-Bytes-Scanned", strconv.FormatInt(st.BytesScanned, 10))
	h.Set("X-Trace-Bytes-Skipped", strconv.FormatInt(st.BytesSkipped, 10))
	h.Set("X-Trace-Events-Matched", strconv.FormatInt(st.EventsMatched, 10))
	h.Set("X-Trace-Full-Scan", strconv.FormatBool(st.FullScan))
	h.Set("X-Trace-Truncated", strconv.FormatBool(st.Truncated))
	w.Write(buf.Bytes())
}

// handleGC runs one retention sweep on demand and reports what it
// collected. Idempotent; a sweep on an idle daemon is a cheap compaction.
func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	st, err := s.GC()
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.Draining(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "draining",
			"draining": true,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"draining": false,
	})
}

// metricsResponse is the /metricsz body: the jobs/* instruments, the shared
// checkpoint store's session stats (the zero-recompute evidence: stores
// across runs sum to the distinct cells ever computed), and the job
// journal's recovery state.
type metricsResponse struct {
	Metrics          *metrics.Snapshot `json:"metrics"`
	Checkpoint       checkpoint.Stats  `json:"checkpoint"`
	JournalTornBytes int64             `json:"journal_torn_bytes"`
	Goroutines       int               `json:"goroutines"`
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, metricsResponse{
		Metrics:          s.reg.Snapshot(),
		Checkpoint:       s.store.Stats(),
		JournalTornBytes: s.JournalTornBytes(),
		Goroutines:       runtime.NumGoroutine(),
	})
}
