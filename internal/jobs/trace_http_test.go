package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"udwn/internal/experiment"
	"udwn/internal/sim"
	"udwn/internal/trace"
)

// getTrace fetches one trace query and returns the decoded events plus the
// response for header checks.
func getTrace(t *testing.T, url string) ([]sim.SlotEvent, *http.Response) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, r.StatusCode, body)
	}
	events, _, err := trace.ReadEvents(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("sub-trace from %s does not decode: %v", url, err)
	}
	return events, r
}

// TestAPITraceQuery runs a real traced job end to end: submit with
// trace=true, let ExperimentRunner record the grid, then query the trace
// endpoint — the full fetch must equal the recorded stream, a selective
// query must equal the predicate filter over it (in both formats) with the
// planner's counters in the X-Trace-* headers, and the error paths must map
// to their status codes.
func TestAPITraceQuery(t *testing.T) {
	// Quick-mode table1 finishes in well under a second, so this runs even
	// in -short — it is the only coverage of the trace-serving path.
	cfg := testConfig(t, nil) // nil Runner selects the real ExperimentRunner
	s, ts := newTestAPI(t, cfg)

	v := decodeView(t, postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"],"quick":true,"trace":true}`))
	final := waitTerminal(t, s, v.ID)
	if final.State != StateDone {
		t.Fatalf("job = %+v, want DONE", final)
	}
	base := ts.URL + "/jobs/" + v.ID + "/trace"

	all, resp := getTrace(t, base)
	if len(all) == 0 {
		t.Fatal("traced job produced no events")
	}
	if resp.Header.Get("X-Trace-Full-Scan") != "false" {
		t.Fatal("recorded trace should be indexed, but the planner full-scanned")
	}

	// A selective query: one node that actually appears, via both formats.
	node := all[0].Transmitters[0]
	pred := trace.Predicate{Nodes: []int{node}}
	var want []sim.SlotEvent
	for _, ev := range all {
		if pred.Match(ev) {
			want = append(want, ev)
		}
	}
	for _, format := range []string{"", "&format=jsonl"} {
		got, r := getTrace(t, base+fmt.Sprintf("?query=node=%d", node)+format)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query%s returned %d events, filter over full trace %d", format, len(got), len(want))
		}
		matched, err := strconv.Atoi(r.Header.Get("X-Trace-Events-Matched"))
		if err != nil || matched != len(want) {
			t.Fatalf("X-Trace-Events-Matched = %q, want %d", r.Header.Get("X-Trace-Events-Matched"), len(want))
		}
	}

	// The planner's work surfaces in the daemon metrics.
	if n := s.Metrics().CounterValue("trace/query/queries"); n < 3 {
		t.Fatalf("trace/query/queries = %d, want >= 3", n)
	}

	for _, c := range []struct {
		path string
		want int
	}{
		{base + "?query=color%3Dred", http.StatusBadRequest},
		{base + "?format=xml", http.StatusBadRequest},
		{ts.URL + "/jobs/j-999999/trace", http.StatusNotFound},
	} {
		r, err := http.Get(c.path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != c.want {
			t.Fatalf("GET %s = %d, want %d", c.path, r.StatusCode, c.want)
		}
	}

	// A job submitted without tracing has no trace to query.
	v2 := decodeView(t, postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"],"quick":true}`))
	waitTerminal(t, s, v2.ID)
	r, err := http.Get(ts.URL + "/jobs/" + v2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace of untraced job = %d, want 400", r.StatusCode)
	}
}

// TestAPIStatusz pins the per-worker introspection: a busy pool reports
// which job each worker is on (with its progress), the queue depth and the
// intake counters; after the jobs finish the workers report idle again.
func TestAPIStatusz(t *testing.T) {
	block := make(chan struct{})
	started := make(chan string, 8)
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		rc.Progress(experiment.Progress{Experiment: spec.Experiments[0], Done: 1, Total: 4})
		started <- spec.Experiments[0]
		select {
		case <-block:
			return "done", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	cfg := testConfig(t, r)
	cfg.Workers = 1
	s, ts := newTestAPI(t, cfg)

	v1 := decodeView(t, postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"],"quick":true}`))
	v2 := decodeView(t, postJSON(t, ts.URL+"/jobs", `{"experiments":["table2"],"quick":true}`))
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the first job")
	}

	fetch := func() StatusView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("statusz = %d, want 200", resp.StatusCode)
		}
		var sv StatusView
		if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
			t.Fatal(err)
		}
		return sv
	}

	sv := fetch()
	if len(sv.Workers) != 1 {
		t.Fatalf("statusz reports %d workers, want 1", len(sv.Workers))
	}
	w0 := sv.Workers[0]
	if w0.Idle || w0.Job != v1.ID {
		t.Fatalf("busy worker = %+v, want running %s", w0, v1.ID)
	}
	if w0.Progress == nil || w0.Progress.Experiment != "table1" || w0.Progress.Done != 1 {
		t.Fatalf("worker progress = %+v, want table1 1/4", w0.Progress)
	}
	if sv.QueueDepth != 1 {
		t.Fatalf("queue_depth = %d, want 1 (job %s waiting)", sv.QueueDepth, v2.ID)
	}
	if sv.Counters["jobs/accepted"] != 2 || sv.Jobs[StateRunning] != 1 {
		t.Fatalf("statusz counters/jobs = %+v / %+v", sv.Counters, sv.Jobs)
	}

	close(block)
	waitTerminal(t, s, v1.ID)
	waitTerminal(t, s, v2.ID)
	sv = fetch()
	if !sv.Workers[0].Idle || sv.Workers[0].Job != "" {
		t.Fatalf("drained pool worker = %+v, want idle", sv.Workers[0])
	}
	if sv.QueueDepth != 0 || sv.Jobs[StateDone] != 2 {
		t.Fatalf("after finish: queue_depth = %d, jobs = %+v", sv.QueueDepth, sv.Jobs)
	}
}
