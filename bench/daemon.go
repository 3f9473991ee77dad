package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"udwn/internal/jobs"
	"udwn/internal/rng"
)

// daemon-mix drives an in-process jobs.Server through its HTTP handler on
// loopback, as independent users would: submissions arrive on a seeded
// Poisson schedule whether or not earlier jobs have finished (open loop).
// Each round starts a fresh daemon on an empty state directory and plays
// its own plan; every plan submits the same specs, in a different order
// and at different times.

// daemonRate is the arrival rate in jobs per reference second (see
// calib.go), about half the daemon's capacity on this plan: submitted all
// at once, rounds drained about 200 jobs/s on a 2-vCPU VM.
const daemonRate = 100.0

var (
	// normalExps are cheap at quick scale (under 10 ms of simulation per
	// seed), so a job's cost is mostly the daemon's own: admission, the
	// journal, grid dispatch, checkpoint reads and writes. Each is
	// submitted submissionsPerExp times; the k-th submission asks for k
	// seeds, so every job computes one new seed per row (checkpoint stores)
	// and replays the rest (checkpoint hits). table12 stays out because its
	// fault-event counters are expected to change when DropRecv is unified.
	normalExps = []string{"figure1", "figure2", "table3", "table7", "table9", "figure4"}
	// traceExps are each submitted once per round with trace:true and one
	// seed, on experiments no other job runs, so every traced job computes
	// all of its cells itself and its trace — and the query answered from
	// it — is the same in every round.
	traceExps = []string{"table2", "figure3", "table5"}
)

const (
	submissionsPerExp = 3
	// duplicates is how many normal submissions are repeated at once by a
	// second client (about 1 in 6 submissions), exercising single-flight
	// cell dedup.
	duplicates = 4
)

var daemonMix = benchWorkload{
	name:   "daemon-mix",
	why:    "udwnd jobs submit-to-result under open-loop Poisson load: job pool, grid dispatch, checkpoint reuse and dedup, trace queries",
	loop:   fmt.Sprintf("open loop, Poisson arrivals at %g jobs per reference second from 2 goroutines over at most 2 connections; an input set is one plan", daemonRate),
	op:     "job",
	inputs: 24,
	prepare: func(seed uint64, tiny bool) (roundFunc, error) {
		return func(ctx context.Context, r *round, k int) error {
			var plan []plannedJob
			if err := r.input(func() error {
				plan = planDaemon(mix(seed, uint64(k)), tiny)
				return nil
			}); err != nil {
				return err
			}
			return daemonRound(ctx, r, plan)
		}, nil
	},
}

// plannedJob is one submission of the plan.
type plannedJob struct {
	spec   jobs.Spec
	client string
	at     time.Duration // due time after the round starts
	// key names the job's output in the digest table; queryKey names the
	// follow-up trace query's result ("" for untraced jobs).
	key, queryKey string
	queryNode     int
}

// planDaemon derives a round's submissions from the seed. The multiset of
// specs is the same for every seed — only the order, the arrival times and
// which submissions are duplicated vary — so one table of output digests
// verifies any seed.
func planDaemon(seed uint64, tiny bool) []plannedJob {
	normal, traced, per, dups, rate := normalExps, traceExps, submissionsPerExp, duplicates, daemonRate
	if tiny {
		normal, traced, per, dups, rate = normalExps[:2], traceExps[:1], 2, 1, 400
	}
	src := rng.New(seed)
	var order []string
	for _, e := range normal {
		for i := 0; i < per; i++ {
			order = append(order, e)
		}
	}
	order = append(order, traced...)
	src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	traceNode := make(map[string]int)
	for i, e := range traced {
		traceNode[e] = 1 + i%4
	}

	// Poisson arrivals conditioned on the round's count: the submissions
	// fall uniformly at random over a fixed span, so every round offers the
	// same load and only its burstiness varies. Duplicates arrive with
	// their originals and count toward the rate.
	dups = min(dups, len(order)-len(traced))
	span := float64(len(order)+dups) / rate
	times := make([]float64, len(order))
	for i := range times {
		times[i] = src.Float64() * span
	}
	slices.Sort(times)

	var plan []plannedJob
	submitted := make(map[string]int)
	for i, e := range order {
		at := time.Duration(times[i] * float64(time.Second))
		p := plannedJob{at: at, client: "a", spec: jobs.Spec{Experiments: []string{e}, Quick: true}}
		if node, ok := traceNode[e]; ok {
			p.spec.Seeds, p.spec.Trace, p.queryNode = 1, true, node
			p.queryKey = fmt.Sprintf("%s seeds=1 query node=%d", e, node)
		} else {
			submitted[e]++
			p.spec.Seeds = submitted[e]
		}
		p.spec.Seed = uint64(len(plan) + 1)
		p.key = fmt.Sprintf("%s seeds=%d", e, p.spec.Seeds)
		plan = append(plan, p)
	}
	// Duplicate distinct untraced submissions: the copy comes from a second
	// client at the same due time, so both run concurrently.
	var candidates []int
	for i, p := range plan {
		if !p.spec.Trace {
			candidates = append(candidates, i)
		}
	}
	src.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	dupOf := make(map[int]bool)
	for _, i := range candidates[:dups] {
		dupOf[i] = true
	}
	var out []plannedJob
	for i, p := range plan {
		out = append(out, p)
		if dupOf[i] {
			d := p
			d.client = "b"
			out = append(out, d)
		}
	}
	return out
}

// jobRun is the load generator's record of one planned job. The submitter
// writes the submission fields before it starts the job's listener; the
// listener writes the lifecycle fields before it hands the job to the
// collector, which alone reads them and records spans.
type jobRun struct {
	p   *plannedJob
	due time.Time

	submitStart, submitEnd time.Time
	id                     string
	err                    error // set when the job was never accepted

	running, finished time.Time
	state             jobs.State
	attempts          int
	cells             []time.Time // grid progress events
}

// daemonRound opens a fresh daemon, plays the plan against it and shuts it
// down.
func daemonRound(ctx context.Context, r *round, plan []plannedJob) (err error) {
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r.calibrate()
	grp := r.tr.group()
	s0 := time.Now()
	srv, err := jobs.Open(jobs.Config{Dir: dir, Workers: 2})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	s1 := time.Now()
	r.setup += s1.Sub(s0).Seconds() / r.factor
	r.tr.record("daemon.open", grp, -1, s0, s1)

	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	client := &http.Client{Transport: transport}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := hs.Shutdown(sctx); serr != nil && err == nil {
			err = serr
		}
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		transport.CloseIdleConnections()
		if derr := srv.Drain(); derr != nil && err == nil {
			err = derr
		}
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// The plan's times are in reference seconds. Stretching them by the
	// host's slowdown keeps the offered load the same share of the daemon's
	// capacity however fast the host runs at the moment.
	base := "http://" + ln.Addr().String()
	runs := make([]*jobRun, len(plan))
	start := time.Now()
	for i := range plan {
		at := time.Duration(float64(plan[i].at) * r.factor)
		runs[i] = &jobRun{p: &plan[i], due: start.Add(at)}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan *jobRun, len(runs))
	var listeners sync.WaitGroup
	var shed int
	var subErr, colErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		shed, subErr = submitAll(ctx, client, base, srv, runs, done, &listeners)
		if subErr != nil {
			cancel()
		}
	}()
	go func() {
		defer wg.Done()
		colErr = collect(ctx, r, client, base, runs, done)
		if colErr != nil {
			cancel()
		}
	}()
	wg.Wait()
	listeners.Wait()
	if err := errors.Join(subErr, colErr); err != nil {
		return err
	}

	r.add("jobs.jobs", float64(len(runs)))
	r.add("jobs.shed", float64(shed))
	st := statsOf(srv.Store(), "Stats")
	for name, key := range map[string]string{
		"checkpoint.hits": "Hits", "checkpoint.misses": "Misses", "checkpoint.stores": "Stores",
		"checkpoint.dedup_waits": "DedupWaits", "checkpoint.dedup_hits": "DedupHits",
	} {
		r.add(name, float64(st[key]))
	}
	r.add("checkpoint.lookups", float64(st["Hits"]+st["Misses"]))
	r.add("checkpoint.journal_bytes", float64(fileSize(filepath.Join(dir, "cells", "cells.journal"))))
	traces, _ := filepath.Glob(filepath.Join(dir, "traces", "*.utb")) // fails only on a malformed pattern
	for _, f := range traces {
		r.add("trace.bytes_written", float64(fileSize(f)))
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// retry is a shed submission waiting out its Retry-After.
type retry struct {
	at time.Time
	j  *jobRun
}

type retryHeap []retry

func (h retryHeap) Len() int           { return len(h) }
func (h retryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h retryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)        { *h = append(*h, x.(retry)) }
func (h *retryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// submitAll is the open-loop submitter: it posts every planned job at its
// due time (or, after a 429, after the Retry-After the daemon asked for),
// subscribes to the accepted job's events and hands never-accepted jobs
// straight to the collector. It returns how many submissions were shed.
func submitAll(ctx context.Context, client *http.Client, base string, srv *jobs.Server,
	runs []*jobRun, done chan<- *jobRun, listeners *sync.WaitGroup) (int, error) {
	var retries retryHeap
	shed := 0
	next := 0
	timer := time.NewTimer(0)
	defer timer.Stop()
	for next < len(runs) || retries.Len() > 0 {
		var j *jobRun
		var at time.Time
		if next < len(runs) && (retries.Len() == 0 || !retries[0].at.Before(runs[next].due)) {
			j, at = runs[next], runs[next].due
			next++
		} else {
			rt := heap.Pop(&retries).(retry)
			j, at = rt.j, rt.at
		}
		if d := time.Until(at); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return shed, ctx.Err()
			}
		}
		body, err := json.Marshal(j.p.spec)
		if err != nil {
			return shed, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return shed, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client", j.p.client)
		first := j.submitStart.IsZero()
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return shed, fmt.Errorf("submit: %w", err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		if err != nil {
			return shed, fmt.Errorf("submit: %w", err)
		}
		if first {
			j.submitStart = t0
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var view jobs.JobView
			if err := json.Unmarshal(payload, &view); err != nil {
				return shed, fmt.Errorf("submit: decode: %w", err)
			}
			j.submitEnd, j.id = t1, view.ID
			events, stop, err := srv.Subscribe(view.ID)
			if err != nil {
				return shed, fmt.Errorf("subscribe %s: %w", view.ID, err)
			}
			listeners.Add(1)
			go func() {
				defer listeners.Done()
				listen(ctx, j, events, stop)
				done <- j
			}()
		case http.StatusTooManyRequests:
			shed++
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 {
				secs = 1
			}
			heap.Push(&retries, retry{at: t1.Add(time.Duration(secs) * time.Second), j: j})
		default:
			j.submitEnd = t1
			j.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
			done <- j
		}
	}
	return shed, nil
}

// listen records a job's lifecycle from its event stream, which the daemon
// closes after the terminal event. A cancelled round detaches instead.
func listen(ctx context.Context, j *jobRun, events <-chan jobs.Event, stop func()) {
	defer stop()
	for {
		var ev jobs.Event
		var ok bool
		select {
		case ev, ok = <-events:
		case <-ctx.Done():
			return
		}
		if !ok {
			break
		}
		now := time.Now()
		switch ev.Type {
		case "state":
			if ev.State == jobs.StateRunning && j.running.IsZero() {
				j.running = now
			}
			if ev.State.Terminal() {
				j.state, j.attempts, j.finished = ev.State, ev.Attempt, now
			}
		case "progress":
			j.cells = append(j.cells, now)
		}
	}
	if j.running.IsZero() {
		j.running = j.finished
	}
}

// collect fetches every finished job's result (and, for traced jobs, runs
// the follow-up trace query), checks the bytes and records the job.
func collect(ctx context.Context, r *round, client *http.Client, base string, runs []*jobRun, done <-chan *jobRun) error {
	outputs := make(map[string]string)
	for range runs {
		var j *jobRun
		select {
		case j = <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
		r.units++
		grp := r.tr.group()
		if j.err != nil || j.state != jobs.StateDone {
			r.failed++
			if j.err == nil {
				j.err = fmt.Errorf("job %s ended %s", j.id, j.state)
			}
			fmt.Fprintf(os.Stderr, "bench: daemon-mix: %s: %v\n", j.p.key, j.err)
			continue
		}
		res0 := time.Now()
		body, _, err := get(ctx, client, base+"/jobs/"+j.id+"/result")
		res1 := time.Now()
		if err != nil {
			return err
		}
		if err := note(outputs, j.p.key, body); err != nil {
			return err
		}
		end := res1
		var q0, q1 time.Time
		if j.p.spec.Trace {
			q0 = time.Now()
			sub, hdr, err := get(ctx, client, fmt.Sprintf("%s/jobs/%s/trace?query=node=%d", base, j.id, j.p.queryNode))
			q1 = time.Now()
			if err != nil {
				return err
			}
			if err := note(outputs, j.p.queryKey, sub); err != nil {
				return err
			}
			for name, h := range map[string]string{
				"trace.query.bytes_scanned": "X-Trace-Bytes-Scanned", "trace.query.bytes_skipped": "X-Trace-Bytes-Skipped",
			} {
				v, _ := strconv.ParseFloat(hdr.Get(h), 64)
				r.add(name, v)
			}
			end = q1
		}
		// Latency runs from the due time, so a late generator or a shed
		// submission's wait counts against the job.
		r.op(end.Sub(j.due))
		r.sample("load.lateness_ms", float64(j.submitStart.Sub(j.due))/1e6)
		r.add("jobs.attempts", float64(j.attempts))
		r.add("grid.cells", float64(len(j.cells)))
		prev := j.running
		for _, c := range j.cells {
			r.sample("grid.cell_ms", float64(c.Sub(prev))/1e6)
			prev = c
		}
		root := r.tr.open("job", grp, -1, j.due)
		r.tr.record("http.submit", grp, root, j.submitStart, j.submitEnd)
		r.tr.record("jobs.queue", grp, root, j.submitEnd, j.running)
		r.tr.record("jobs.run", grp, root, j.running, j.finished)
		r.tr.record("http.result", grp, root, res0, res1)
		if j.p.spec.Trace {
			r.tr.record("http.query", grp, root, q0, q1)
		}
		r.tr.close(root, end)
	}
	for k, v := range outputs {
		r.outputs[k] = v
	}
	return nil
}

// note records the digest of one output, which every job with the same
// key must reproduce exactly.
func note(outputs map[string]string, key string, b []byte) error {
	h := fnv.New64a()
	h.Write(b)
	d := fmt.Sprintf("%016x", h.Sum64())
	if prev, ok := outputs[key]; ok && prev != d {
		return fmt.Errorf("%s: two jobs with the same spec returned different bytes (%s, %s)", key, prev, d)
	}
	outputs[key] = d
	return nil
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header, nil
}
