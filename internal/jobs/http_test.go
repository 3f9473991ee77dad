package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"udwn/internal/experiment"
)

func newTestAPI(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustOpen(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAPISubmitLifecycle walks the happy path over real HTTP: submit → 202
// with a Location header → poll the view → fetch the terminal result as
// plain text.
func TestAPISubmitLifecycle(t *testing.T) {
	_, ts := newTestAPI(t, testConfig(t, okRunner("rendered tables\n")))
	// The benchmark's daemon-mix workload names a client in an X-Client
	// header on every submission; the daemon ignores the header, and it
	// must never turn the submission away.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(`{"experiments":["table1"],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", "b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	v := decodeView(t, resp)
	if v.ID == "" || loc != "/jobs/"+v.ID {
		t.Fatalf("view %+v, Location %q", v, loc)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		v = decodeView(t, r)
		if v.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.State != StateDone {
		t.Fatalf("state = %s, want DONE", v.State)
	}

	r, err := http.Get(ts.URL + loc + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("result status = %d, content-type = %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "rendered tables\n" {
		t.Fatalf("result body = %q", body)
	}
}

// TestOverweightSpecIsInvalid: a spec heavier than the weight budget can
// never be admitted, so even an idle daemon refuses it as invalid (HTTP 400)
// rather than shedding it with 429 + Retry-After, which a client honouring
// the header would retry forever. All 16 experiments at 33 seeds weigh 528,
// above the default MaxWeight of 512, while 33 seeds is within its limit.
func TestOverweightSpecIsInvalid(t *testing.T) {
	var ids []string
	for _, e := range experiment.All() {
		ids = append(ids, e.ID)
	}
	heavy := Spec{Experiments: ids, Seeds: 33, Quick: true}
	s, ts := newTestAPI(t, testConfig(t, okRunner("")))
	var inv *InvalidError
	if _, err := s.Submit(heavy); !errors.As(err, &inv) {
		t.Fatalf("weight %d on an idle daemon: err = %v, want *InvalidError", heavy.weight(), err)
	}
	body, err := json.Marshal(heavy)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/jobs", string(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /jobs of weight %d: status = %d, want 400", heavy.weight(), resp.StatusCode)
	}
	if shed := s.Metrics().CounterValue("jobs/shed"); shed != 0 {
		t.Fatalf("jobs/shed = %d, want 0", shed)
	}
}

func TestAPIValidationAndErrors(t *testing.T) {
	_, ts := newTestAPI(t, testConfig(t, okRunner("")))
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"experiments":[]}`, http.StatusBadRequest},
		{`{"experiments":["bogus"]}`, http.StatusBadRequest},
		{`{"experiments":["table1"],"unknown_field":1}`, http.StatusBadRequest},
		// Specs carry no client identity and no retry budget; those
		// fields are as unknown as any.
		{`{"experiments":["table1"],"client":"alice"}`, http.StatusBadRequest},
		{`{"experiments":["table1"],"retries":2}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/jobs", c.body)
		if resp.StatusCode != c.want {
			t.Fatalf("body %q: status = %d, want %d", c.body, resp.StatusCode, c.want)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if e["error"] == "" {
			t.Fatalf("body %q: error response missing error field", c.body)
		}
	}
	for _, path := range []string{"/jobs/j-999999", "/jobs/j-999999/result", "/jobs/j-999999/events"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", path, r.StatusCode)
		}
	}
}

// TestAPIShedReturns429WithRetryAfter pins the load-shedding HTTP contract:
// a shed submission gets 429 with Retry-After: 1.
func TestAPIShedReturns429WithRetryAfter(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return "", nil
	}
	cfg := testConfig(t, r)
	cfg.Workers = 1
	cfg.MaxWeight = 2
	_, ts := newTestAPI(t, cfg)

	var shed *http.Response
	for i := 0; i < 10; i++ {
		resp := postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"],"quick":true}`)
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d", i, resp.StatusCode)
		}
	}
	if shed == nil {
		t.Fatal("queue never shed")
	}
	defer shed.Body.Close()
	if shed.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want %q", shed.Header.Get("Retry-After"), "1")
	}
}

// TestAPIEventsStreamsSSE reads the live event stream: data frames must
// arrive as SSE, include progress, and end with the terminal state.
func TestAPIEventsStreamsSSE(t *testing.T) {
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		// Emit progress like a real grid would.
		for i := 1; i <= 3; i++ {
			rc.Progress(experiment.Progress{Experiment: spec.Experiments[0], Done: i, Total: 3})
			time.Sleep(2 * time.Millisecond)
		}
		return "ok", nil
	}
	cfg := testConfig(t, r)
	cfg.Workers = 1
	_, ts := newTestAPI(t, cfg)

	resp := postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"],"quick":true,"seeds":3}`)
	v := decodeView(t, resp)

	er, err := http.Get(ts.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	if ct := er.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(er.Body)
	var events []Event
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Type == "state" && ev.State.Terminal() {
			break
		}
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("last event = %+v, want terminal DONE", last)
	}
	for _, ev := range events {
		if ev.Job != v.ID {
			t.Fatalf("event for wrong job: %+v", ev)
		}
	}
}

func TestAPIHealthReadyMetrics(t *testing.T) {
	s, ts := newTestAPI(t, testConfig(t, okRunner("")))
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, r.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var m metricsResponse
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if m.Metrics == nil {
		t.Fatal("metricsz missing metrics snapshot")
	}
	names := map[string]bool{}
	for _, c := range m.Metrics.Counters {
		names[c.Name] = true
	}
	for _, want := range []string{"jobs/accepted", "jobs/shed", "jobs/resumed", "jobs/drained"} {
		if !names[want] {
			t.Fatalf("metricsz missing counter %s (have %v)", want, names)
		}
	}

	// Drain flips readiness but not liveness.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	hr, _ := http.Get(ts.URL + "/healthz")
	rr, _ := http.Get(ts.URL + "/readyz")
	hr.Body.Close()
	rr.Body.Close()
	if hr.StatusCode != http.StatusOK || rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after drain: healthz = %d (want 200), readyz = %d (want 503)",
			hr.StatusCode, rr.StatusCode)
	}
	sr := postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"]}`)
	sr.Body.Close()
	if sr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", sr.StatusCode)
	}
}

func TestAPICancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		select {
		case <-block:
			return "", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	cfg := testConfig(t, r)
	cfg.Workers = 1
	s, ts := newTestAPI(t, cfg)
	v1 := decodeView(t, postJSON(t, ts.URL+"/jobs", `{"experiments":["table1"]}`))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}
	final := waitTerminal(t, s, v1.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want CANCELLED", final.State)
	}
	// Cancelling a terminal job conflicts.
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel status = %d, want 409", resp2.StatusCode)
	}
}
