// Package metrics is the deterministic observability spine of the
// repository: a registry of named counters, gauges, fixed-bucket histograms
// and timers whose snapshots can be golden-tested like everything else.
//
// Determinism contract. A snapshot is a pure function of the *set* of
// recorded events, not of the order or the thread they were recorded on:
//
//   - names are reported in sorted order, independent of registration order
//     (and hence of goroutine scheduling);
//   - histogram buckets are fixed at declaration, and histograms accumulate
//     only integer bucket counts — never floating-point sums, whose value
//     would depend on accumulation order;
//   - counter and gauge updates are commutative integer operations
//     (adds and atomic max), so merged totals are schedule-independent;
//   - the only nondeterministic quantities — wall-clock and allocation
//     figures on timers — are segregated into fields that
//     Snapshot.ZeroTimings clears, so tests compare everything else
//     byte-for-byte.
//
// The experiment grid merges per-slot instrumentation from concurrently
// executing cells into one shared registry; the contract above is what makes
// a Workers=8 run snapshot byte-identical to a Workers=1 run (pinned by
// TestMetricsWorkersDeterminism in internal/experiment).
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone event count. All methods are safe for concurrent
// use; adds commute, so totals are deterministic regardless of scheduling.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-written integer level (e.g. a configured size, a high
// watermark via SetMax). Concurrent Set calls race by design — use gauges
// for values written from one place, or use SetMax, which commutes.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger — a commutative update safe
// for concurrent writers.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into buckets fixed at declaration. Bucket i
// counts observations v <= Bounds[i] (and above every earlier bound); one
// implicit overflow bucket counts v above the last bound. Only integer
// counts are kept — no floating-point sum — so merged histograms are
// independent of observation order.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Timer accumulates wall-clock and allocation cost of repeated operations.
// The invocation count is deterministic; the nanosecond and byte totals are
// inherently machine- and schedule-dependent, and land in snapshot fields
// that ZeroTimings clears.
type Timer struct {
	count atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

// Observe records one operation of duration d that allocated bytes bytes
// (pass 0 when allocation tracking is off).
func (t *Timer) Observe(d time.Duration, bytes int64) {
	t.count.Add(1)
	t.ns.Add(int64(d))
	t.bytes.Add(bytes)
}

// Time starts a wall-clock measurement; the returned stop function records
// it. Allocation cost is not measured.
func (t *Timer) Time() (stop func()) {
	start := time.Now()
	return func() { t.Observe(time.Since(start), 0) }
}

// Count returns the number of recorded operations.
func (t *Timer) Count() int64 { return t.count.Load() }

// TotalNs returns the accumulated wall-clock nanoseconds.
func (t *Timer) TotalNs() int64 { return t.ns.Load() }

// Registry is a namespace of metrics. Lookups are get-or-create and safe
// for concurrent use; the instruments themselves are lock-free, so hot
// paths should resolve their handles once and hold them.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	timers map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		timers: make(map[string]*Timer),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// CounterValue returns the value of a counter without registering it; a
// never-touched name reads 0 and stays absent from snapshots.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.ctrs[name]; ok {
		return c.Value()
	}
	return 0
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given strictly increasing bucket upper bounds on first use. Buckets are
// declaration-fixed: a second declaration must repeat the same bounds, and
// a mismatch panics — silently merging differently-bucketed histograms
// would corrupt every consumer.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds must be strictly increasing, got %v", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("metrics: histogram %q redeclared with %d buckets, have %d", name, len(bounds), len(h.bounds)))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("metrics: histogram %q redeclared with bounds %v, have %v", name, bounds, h.bounds))
			}
		}
		return h
	}
	h = &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Timer returns the timer with the given name, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}
