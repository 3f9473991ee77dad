package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"udwn/internal/faults"
	"udwn/internal/sim"
)

// TestWorkloadsRepeatAndTraceTransparently runs every workload at a tiny
// size through the same functions the benchmark uses: replaying a round
// must reproduce its outcome digest, and a traced run — which runs every
// round untraced and traced and compares digests, index modes and wheel
// counts — must report no problem and every metric.
func TestWorkloadsRepeatAndTraceTransparently(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			fn, err := w.prepare(3, true)
			if err != nil {
				t.Fatal(err)
			}
			a, err := roundDigest(ctx, fn, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := roundDigest(ctx, fn, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("replaying round 1 gave digest %s, then %s", a, b)
			}

			// A run covers every input set; two keep the test short.
			w.inputs = min(w.inputs, 2)
			res, err := runWorkload(ctx, w, runOpts{seed: 3, seconds: 0.01, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d problems=%v",
					res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}

			tr, err := runWorkload(ctx, w, runOpts{seed: 3, seconds: 0.01, tiny: true, traceDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Digest != res.Digest {
				t.Fatalf("traced run: correct=%v digest %s vs untraced %s, problems=%v",
					tr.Correct, tr.Digest, res.Digest, tr.Problems)
			}
			for _, d := range perLayer {
				if m, ok := tr.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("per-layer %s = %+v, want a value in %s", d.name, m, d.unit)
				}
			}
		})
	}
}

// TestCalibrateConvertsOpsAndTotalAlike checks that calibration converts
// every latency and the busy total by the same slowdown, so percentiles
// and means stay consistent.
func TestCalibrateConvertsOpsAndTotalAlike(t *testing.T) {
	var sink []float64
	r := newRound(nil, &sink)
	r.calibrate()
	f0 := r.factor
	for i := 1; i <= 5; i++ {
		r.op(time.Duration(i) * time.Millisecond)
	}
	r.calibrate()
	sum := 0.0
	for _, v := range sink {
		sum += v
	}
	if !(f0 > 0 && r.factor > 0) || math.Abs(sum-r.norm) > 1e-9*sum {
		t.Fatalf("slowdowns %v, %v: latencies sum to %v reference ms, busy total %v", f0, r.factor, sum, r.norm)
	}
	if want := 15 / ((f0 + r.factor) / 2); math.Abs(r.norm-want) > 1e-9*want {
		t.Fatalf("15 ms measured became %v reference ms, want %v", r.norm, want)
	}
}

func TestCountingInjectorKeepsEngineInterfaces(t *testing.T) {
	var inj sim.Injector = &countingInjector{Engine: faults.New(faults.Spec{})}
	if _, ok := inj.(sim.QuiescentInjector); !ok {
		t.Error("the counting wrapper hides sim.QuiescentInjector, which changes how runs step")
	}
	eng, wrap := reflect.TypeOf((*faults.Engine)(nil)), reflect.TypeOf(inj)
	for i := 0; i < eng.NumMethod(); i++ {
		if _, ok := wrap.MethodByName(eng.Method(i).Name); !ok {
			t.Errorf("the counting wrapper lacks the engine's method %s", eng.Method(i).Name)
		}
	}
}

// TestDaemonPlanSpecsIndependentOfSeed pins the property that lets one
// digest table verify daemon-mix at any seed.
func TestDaemonPlanSpecsIndependentOfSeed(t *testing.T) {
	keys := func(seed uint64) []string {
		var out []string
		for _, p := range planDaemon(seed, false) {
			out = append(out, p.key+"|"+p.queryKey)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	a, b := keys(1), keys(12345)
	if !slices.Equal(a, b) {
		t.Fatalf("plans of different seeds submit different specs:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(planDaemon(1, false), planDaemon(12345, false)) {
		t.Fatal("plans of different seeds are identical; the seed should order and time them")
	}
}

func TestJudge(t *testing.T) {
	tenFlat := func(x float64) []float64 { return []float64{x, x, x, x, x, x, x, x, x, x} }
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name         string
		base, change []float64
		lowerBetter  bool
		bound        float64
		want         verdict
	}{
		{"clear gain", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, true, 0.1, gain},
		{"gain on a higher-better metric", steady, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, false, 0.1, gain},
		{"too few pairs for a gain", steady[:9], []float64{80, 81, 79, 80, 82, 78, 80, 81, 79}, true, 0.1, noWorse},
		{"8 of 10 wins is no gain", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 120, 120}, true, 0.1, noWorse},
		{"ties count for neither side", tenFlat(100), []float64{100, 100, 90, 90, 90, 90, 90, 90, 90, 90}, true, 0.1, noWorse},
		{"difference within the parent's quartiles is no gain",
			[]float64{80, 120, 80, 120, 80, 120, 80, 120, 80, 120},
			[]float64{79, 119, 79, 119, 79, 119, 79, 119, 79, 119}, true, 0.5, noWorse},
		{"within bound", steady, []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, true, 0.1, noWorse},
		{"regression", steady, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, 0.1, regression},
		{"regression on a higher-better metric", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, false, 0.1, regression},
		{"spread wider than the bound is unresolved",
			[]float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, tenFlat(101), true, 0.1, unresolved},
		{"wide spread but every change run better",
			[]float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, tenFlat(50), true, 0.1, noWorse},
	}
	for _, c := range cases {
		if got := judge(c.base, c.change, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython checks values computed with Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	listing := `Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      900ms 90.00%  udwn/internal/sim.(*Sim).Step
     200ms 20.00% 60.00%      200ms 20.00%  udwn/internal/pathloss.(*Field).Power (inline)
     100ms 10.00% 70.00%      100ms 10.00%  udwn/internal/rng.mix (inline)
     100ms 10.00% 80.00%      100ms 10.00%  runtime.mallocgc
     100ms 10.00% 90.00%      100ms 10.00%  udwn/internal/experiment.(*Grid[go.shape.struct { udwn/internal/sim.X int }]).run
     100ms 10.00%   100%      100ms 10.00%  net/http.(*conn).serve
`
	got := parsePprofTop(listing)
	want := map[string]float64{"cpu.sim": 40, "cpu.pathloss": 20, "cpu.rng": 10, "cpu.runtime": 10, "cpu.experiment": 10, "cpu.other": 10}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(cpuPackages)+2 {
		t.Errorf("got %d shares, want one per package group", len(got))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which names the
// command and metrics and which the comparator reads, in step with what
// the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchmarkSpec
		Command   []string                     `json:"command"`
		Paths     []string                     `json:"paths"`
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
	var got, want []string
	for _, w := range workloads() {
		got = append(got, w.name+": "+w.why)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name+": "+w.Why)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads\n%q\nBENCHMARK.json lists\n%q", got, want)
	}
	var setupBound, maxBound float64
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != "lower" {
			t.Errorf("end_to_end[%d] = %s %s %s, code has %s %s", i, m.Name, m.Unit, m.Better, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
