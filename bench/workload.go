package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// A benchWorkload is a family of seed-derived input sets, run in rounds of
// one set each.
type benchWorkload struct {
	name string
	why  string
	// loop states how load is offered: closed (the next operation starts
	// when the previous one ends) or open (operations arrive on a schedule).
	loop string
	// op names the unit the op_* metrics time.
	op string
	// inputs is how many input sets a run cycles through: enough that a
	// run averages over several inputs, few enough that each set repeats
	// within the run's time budget.
	inputs int
	// prepare returns the function that derives round k's inputs from the
	// seed and runs them.
	prepare func(seed uint64, tiny bool) (roundFunc, error)
}

// roundFunc runs input set k, derived from the seed.
type roundFunc func(ctx context.Context, r *round, k int) error

func workloads() []benchWorkload {
	return []benchWorkload{denseLocal, sparseStrip, faultedMobile, daemonMix}
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// round is what one round of a workload records.
type round struct {
	// tr is nil on untraced rounds; every span call is then a no-op.
	tr *tracer
	// setup is the time in reference seconds the program spends getting
	// ready to work: sim.New, or opening the daemon and its listener.
	setup float64
	// inputAlloc is the heap allocated while generating the round's
	// inputs, which is the benchmark's work, not the program's.
	inputAlloc uint64
	// busy totals the timed operations (ticks or jobs) as measured, and
	// norm in reference ms; every operation's latency in reference ms is
	// appended to *sink once the calibration after it has run.
	busy time.Duration
	norm float64
	ops  int
	sink *[]float64
	// The calibration state (see calib.go): factor is the slowdown at the
	// last calibration; the operations since then are sink[seg:], busy for
	// segBusy. calCPU is the CPU time the kernels took.
	factor  float64
	seg     int
	segBusy time.Duration
	calAt   time.Time
	calCPU  time.Duration
	// units and failed count attempted sim runs or jobs, and those that
	// missed their completion predicate or failed.
	units, failed int
	// outputs maps each output of the round (a sim run's outcome, a job's
	// result, a query's answer) to the digest of its bytes. checks lists
	// other facts that must repeat exactly across rounds.
	outputs map[string]string
	checks  []string
	// counts and samples feed the per-layer metrics.
	counts  map[string]float64
	samples map[string][]float64
}

func newRound(tr *tracer, sink *[]float64) *round {
	return &round{tr: tr, sink: sink, seg: len(*sink), outputs: make(map[string]string),
		counts: make(map[string]float64), samples: make(map[string][]float64)}
}

// calLabels marks the calibration kernels' CPU samples, which the traced
// run leaves out of its CPU shares. It is built once, so calibrating does
// not allocate.
var calLabels = pprof.WithLabels(context.Background(), pprof.Labels("bench", "calibrate"))

// calibrate measures the host's slowdown and converts the operations timed
// since the previous calibration to reference ms, dividing them by the mean
// of the slowdowns measured before and after them.
func (r *round) calibrate() {
	t0, ru0 := time.Now(), rusage()
	pprof.SetGoroutineLabels(calLabels)
	f := slowdown()
	pprof.SetGoroutineLabels(context.Background())
	r.calAt = time.Now()
	r.calCPU += cpuTime(rusage()) - cpuTime(ru0)
	r.tr.record("bench.calibrate", r.tr.group(), -1, t0, r.calAt)
	s := f
	if r.factor > 0 {
		s = (r.factor + f) / 2
	}
	ops := (*r.sink)[r.seg:]
	for i := range ops {
		ops[i] /= s
	}
	r.norm += float64(r.segBusy) / 1e6 / s
	r.seg, r.segBusy, r.factor = len(*r.sink), 0, f
}

// calibrateDue calibrates when calibrateEvery has passed since the last
// calibration; a simulation calls it between ticks.
func (r *round) calibrateDue() {
	if time.Since(r.calAt) >= calibrateEvery {
		r.calibrate()
	}
}

// digest combines the round's output digests into one.
func (r *round) digest() string {
	keys := make([]string, 0, len(r.outputs))
	for k := range r.outputs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, r.outputs[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (r *round) op(d time.Duration) {
	r.busy += d
	r.segBusy += d
	r.ops++
	*r.sink = append(*r.sink, float64(d)/1e6)
}

// input generates inputs, recording the time as a workload.gen span and
// keeping its allocations out of the program's.
func (r *round) input(gen func() error) error {
	a0 := heapAllocBytes()
	g0 := time.Now()
	err := gen()
	r.tr.record("workload.gen", r.tr.group(), -1, g0, time.Now())
	r.inputAlloc += heapAllocBytes() - a0
	return err
}

func (r *round) add(name string, v float64)    { r.counts[name] += v }
func (r *round) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// hashInts feeds int64 values to the digest in a fixed byte order.
func hashInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// statsOf calls the named zero-argument method of v and returns the
// integer fields of the struct it returns, keyed by field name. A missing
// method yields nil, which reads as zero counts: the benchmark keeps
// building when a later change deletes an accessor together with the
// mechanism it counts (the field engine and the quiescence wheel are both
// candidates for deletion).
func statsOf(v any, method string) map[string]int64 {
	m := reflect.ValueOf(v).MethodByName(method)
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 1 {
		return nil
	}
	out := m.Call(nil)[0]
	if out.Kind() != reflect.Struct {
		return nil
	}
	res := make(map[string]int64)
	for i := 0; i < out.NumField(); i++ {
		if f := out.Field(i); f.CanInt() {
			res[out.Type().Field(i).Name] = f.Int()
		}
	}
	return res
}

func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in print order.
// BENCHMARK.json carries their bounds; bench_test checks the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"op_mean_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// result is one invocation's outcome for one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	Digest    string             `json:"digest"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

// runOpts configures one workload invocation.
type runOpts struct {
	seed    uint64
	seconds float64
	// traceDir, when non-empty, makes this a traced run: every round also
	// runs traced, per-layer metrics come from the traced rounds, and
	// spans, profiles and layer times are written under traceDir.
	traceDir string
	tiny     bool
	// digests holds the stored outcome digests; nil skips that check.
	digests digestFile
}

// runWorkload runs an untimed warm-up round, then timed rounds cycling
// through the workload's input sets (round r runs set r mod w.inputs)
// until the time budget is spent and every set has run. Every repetition
// of a set must reproduce the set's outcome digest, and every set of a
// pinned seed must match its stored digest. A traced run follows every
// timed round with a traced round on the same set, which must agree with
// it on outcomes and work facts.
//
// Each metric is computed per input set, over the set's rounds, and then
// averaged over the sets, so every set weighs the same however many
// rounds of it fit in the budget: latency percentiles and time and CPU
// per operation pool the set's operations; set-up time and allocation are
// medians over its rounds.
func runWorkload(ctx context.Context, w benchWorkload, o runOpts) (*result, error) {
	roundFn, err := w.prepare(o.seed, o.tiny)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: o.seed, Trace: o.traceDir != "",
		Metrics: make(map[string]metric), Info: make(map[string]float64)}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	first := make([]*round, w.inputs) // first run of each set
	check := func(what string, k int, r *round) {
		if want, ok := o.digests.expected(w.name, o.seed, k); ok && want != r.digest() {
			problem("%s of input set %d: outcome digest %s, stored %s", what, k, r.digest(), want)
		}
		if f := first[k]; f != nil && (f.digest() != r.digest() || !slices.Equal(f.checks, r.checks)) {
			problem("%s of input set %d differs from its first run: digest %s vs %s, work %v vs %v",
				what, k, r.digest(), f.digest(), r.checks, f.checks)
		}
	}

	var warmSink []float64
	warm, warmStats, err := timeRound(ctx, roundFn, 0, nil, nil, &warmSink)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up round: %w", w.name, err)
	}
	res.Digest = warm.digest()
	check("the warm-up", 0, warm)
	first[0] = warm

	var dir string
	var prof *profiler
	var tr *tracer
	if o.traceDir != "" {
		dir = filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		prof = &profiler{dir: dir}
		tr = newTracer()
	}

	// Operation latencies are kept raw, so percentiles carry every digit;
	// the buffer is sized from the warm-up so appends do not allocate
	// inside timed rounds.
	expect := int(o.seconds/warmStats.wall) + w.inputs + 2
	sink := make([]float64, 0, max(1, warm.ops)*expect*3/2)
	sets := make([]setStats, w.inputs)
	var tracedSink, late []float64
	var ratios []float64
	// Peak RSS is read once every set has run, so it covers the same
	// rounds in every run of a seed however many more fit in the budget.
	var maxRSS float64
	var tracedRounds []*round
	start := time.Now()
	for i := 0; i < w.inputs || time.Since(start).Seconds() < o.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := i % w.inputs
		lo := len(sink)
		r, st, err := timeRound(ctx, roundFn, k, nil, nil, &sink)
		if err != nil {
			return nil, fmt.Errorf("%s: input set %d: %w", w.name, k, err)
		}
		check("a timed round", k, r)
		if first[k] == nil {
			first[k] = r
		}
		sets[k].add(st, lo, len(sink))
		if i == w.inputs-1 {
			maxRSS = float64(rusage().Maxrss) / 1024
		}
		late = append(late, r.samples["load.lateness_ms"]...)
		res.Rounds++
		res.Attempted += r.units
		res.Failed += r.failed
		if tr == nil {
			continue
		}
		t, tst, err := timeRound(ctx, roundFn, k, tr, prof, &tracedSink)
		if err != nil {
			return nil, fmt.Errorf("%s: traced input set %d: %w", w.name, k, err)
		}
		check("a traced round", k, t)
		// Overhead compares each traced round with the untraced round just
		// before it on the same inputs, so drifting machine speed largely
		// cancels.
		ratios = append(ratios, (tst.busy/float64(t.ops))/(st.busy/float64(r.ops)))
		tracedRounds = append(tracedRounds, t)
		res.Attempted += t.units
		res.Failed += t.failed
	}

	if tr == nil {
		perSet := func(f func(s *setStats, lat []float64) float64) float64 {
			sum := 0.0
			for i := range sets {
				sum += f(&sets[i], sets[i].latencies(sink))
			}
			return sum / float64(len(sets))
		}
		var busy, rawBusy float64
		for _, s := range sets {
			busy += s.busy
			rawBusy += s.rawBusy
		}
		v := map[string]float64{
			"setup_s":       perSet(func(s *setStats, _ []float64) float64 { return median(s.setup) }),
			"op_p50_ms":     perSet(func(_ *setStats, lat []float64) float64 { return quantile(lat, 0.5) }),
			"op_p90_ms":     perSet(func(_ *setStats, lat []float64) float64 { return quantile(lat, 0.9) }),
			"op_mean_ms":    perSet(func(s *setStats, lat []float64) float64 { return s.busy / float64(len(lat)) }),
			"cpu_ms_per_op": perSet(func(s *setStats, lat []float64) float64 { return s.cpu / float64(len(lat)) }),
			"alloc_mb":      perSet(func(s *setStats, _ []float64) float64 { return median(s.allocMB) }),
			"max_rss_mb":    maxRSS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{v[d.name], d.unit}
		}
		res.Info["ops"] = float64(len(sink))
		// The host's mean slowdown over the operations, and their mean time
		// as measured, before conversion to reference ms.
		res.Info["slowdown"] = rawBusy / busy
		res.Info["op_mean_ms_measured"] = perSet(func(s *setStats, lat []float64) float64 {
			return s.rawBusy / float64(len(lat))
		})
		if len(late) > 0 {
			res.Info["load.lateness_ms_p50"] = median(late)
			res.Info["load.lateness_ms_max"] = quantile(late, 1)
		}
	} else {
		res.Metrics = layerMetrics(tracedRounds, tr)
		res.Metrics["trace.overhead_pct"] = metric{100 * (median(ratios) - 1), "%"}
		shares, err := prof.cpuShares(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: cpu shares unavailable: %v\n", w.name, err)
			shares = parsePprofTop("")
		}
		for k, v := range shares {
			res.Metrics[k] = metric{v, "%"}
		}
		if err := tr.write(dir); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	res.Info["warmup_s"] = warmStats.wall
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// setStats gathers the timed rounds of one input set.
type setStats struct {
	ranges             [][2]int // each round's operations in the sink
	busy, rawBusy, cpu float64
	setup, allocMB     []float64
}

func (s *setStats) add(st roundStats, lo, hi int) {
	s.ranges = append(s.ranges, [2]int{lo, hi})
	s.busy += st.busy
	s.rawBusy += st.rawBusy
	s.cpu += st.cpu
	s.setup = append(s.setup, st.setup)
	s.allocMB = append(s.allocMB, st.allocMB)
}

// latencies returns the set's operation latencies from the run's sink.
func (s *setStats) latencies(sink []float64) []float64 {
	var out []float64
	for _, sp := range s.ranges {
		out = append(out, sink[sp[0]:sp[1]]...)
	}
	return out
}

// roundStats is what the runner measures around one round.
type roundStats struct {
	wall    float64 // s
	setup   float64 // reference s
	busy    float64 // reference ms spent in operations
	rawBusy float64 // ms spent in operations, as measured
	cpu     float64 // reference ms of process CPU, less the calibrations'
	allocMB float64 // heap allocated by the program, in MiB
}

// timeRound runs input set k and measures it, after a collection so that
// no round pays for the previous one's garbage. A non-nil prof records the
// round's CPU profile.
func timeRound(ctx context.Context, fn roundFunc, k int, tr *tracer, prof *profiler, sink *[]float64) (*round, roundStats, error) {
	runtime.GC()
	if err := prof.start(); err != nil {
		return nil, roundStats{}, err
	}
	r := newRound(tr, sink)
	t0 := time.Now()
	ru0, a0 := rusage(), heapAllocBytes()
	err := fn(ctx, r, k)
	r.calibrate() // converts the last operations to reference ms
	ru1, a1 := rusage(), heapAllocBytes()
	wall := time.Since(t0)
	if perr := prof.stop(); perr != nil && err == nil {
		err = perr
	}
	// CPU time is converted with the round's mean slowdown, weighted by
	// the time spent in operations.
	slow := 1.0
	if r.norm > 0 {
		slow = float64(r.busy) / 1e6 / r.norm
	}
	return r, roundStats{
		wall:    wall.Seconds(),
		setup:   r.setup,
		busy:    r.norm,
		rawBusy: float64(r.busy) / 1e6,
		cpu:     float64(cpuTime(ru1)-cpuTime(ru0)-r.calCPU) / 1e6 / slow,
		allocMB: float64(a1-a0-r.inputAlloc) / (1 << 20),
	}, err
}

// pooled concatenates one sample series across rounds.
func pooled(rs []*round, name string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.samples[name]...)
	}
	return out
}
