package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter must be get-or-create")
	}
	if got := r.CounterValue("never"); got != 0 {
		t.Fatalf("CounterValue(never) = %d, want 0", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after SetMax(5) = %d, want 7", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after SetMax(9) = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 2, 4)
	for _, v := range []float64{0, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms[0]
	// v <= 1: {0, 1}; v <= 2: {1.5, 2}; v <= 4: {3, 4}; over: {5, 100}.
	wantCounts := []int64{2, 2, 2}
	for i, w := range wantCounts {
		if hs.Buckets[i].Count != w {
			t.Fatalf("bucket %d count = %d, want %d", i, hs.Buckets[i].Count, w)
		}
	}
	if hs.Over != 2 {
		t.Fatalf("overflow count = %d, want 2", hs.Over)
	}
	if hs.Count != 8 || h.Count() != 8 {
		t.Fatalf("total count = %d/%d, want 8", hs.Count, h.Count())
	}
}

func TestHistogramRedeclaration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 2)
	if r.Histogram("h", 1, 2) != h {
		t.Fatal("identical redeclaration must return the same histogram")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bounds mismatch", func() { r.Histogram("h", 1, 3) })
	mustPanic("arity mismatch", func() { r.Histogram("h", 1) })
	mustPanic("non-increasing bounds", func() { r.Histogram("h2", 2, 2) })
}

func TestSnapshotDeterminism(t *testing.T) {
	// Registration and update order must not affect the snapshot: hammer a
	// registry from concurrent goroutines touching names in random-ish
	// orders and compare against a sequential build of the same events.
	build := func(concurrent bool) string {
		r := NewRegistry()
		work := func(k int) {
			for i := 0; i < 100; i++ {
				r.Counter("c/a").Inc()
				r.Counter("c/b").Add(2)
				r.Histogram("h", 1, 10, 100).Observe(float64(k*i) / 3)
				r.Timer("t").Observe(time.Duration(k*i), int64(i))
			}
			r.Gauge("g").SetMax(int64(k))
		}
		if concurrent {
			var wg sync.WaitGroup
			for k := 1; k <= 8; k++ {
				wg.Add(1)
				go func() { defer wg.Done(); work(k) }()
			}
			wg.Wait()
		} else {
			for k := 8; k >= 1; k-- { // reversed order on purpose
				work(k)
			}
		}
		return r.Snapshot().ZeroTimings().String()
	}
	seq := build(false)
	for i := 0; i < 4; i++ {
		if conc := build(true); conc != seq {
			t.Fatalf("snapshot depends on scheduling:\n--- sequential ---\n%s--- concurrent ---\n%s", seq, conc)
		}
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Gauge("g").Set(5)
	r.Histogram("h", 0.5, 1).Observe(0.25)
	r.Timer("t").Observe(3*time.Nanosecond, 7)
	got := r.Snapshot().String()
	want := "counter a = 2\n" +
		"counter z = 1\n" +
		"gauge g = 5\n" +
		"histogram h count=1 [le0.5:1 le1:0 over:0]\n" +
		"timer t count=1 wall_ns=3 alloc_bytes=7\n"
	if got != want {
		t.Fatalf("snapshot rendering:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	zeroed := r.Snapshot().ZeroTimings().String()
	if !strings.Contains(zeroed, "timer t count=1 wall_ns=0 alloc_bytes=0") {
		t.Fatalf("ZeroTimings left timing fields:\n%s", zeroed)
	}
}

func TestTimerTime(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("op")
	stop := tm.Time()
	stop()
	if tm.Count() != 1 {
		t.Fatalf("timer count = %d, want 1", tm.Count())
	}
	if tm.TotalNs() < 0 {
		t.Fatalf("timer ns = %d, want >= 0", tm.TotalNs())
	}
}

func TestCountersCompat(t *testing.T) {
	// The Counters surface keeps its historical rendering contract.
	c := NewCounters()
	if c.String() != "" {
		t.Fatalf("empty set renders %q, want \"\"", c.String())
	}
	c.Add("beta", 2)
	c.Add("alpha", 1)
	c.Add("beta", 3)
	if got := c.Get("beta"); got != 5 {
		t.Fatalf("Get(beta) = %d, want 5", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("Get(missing) = %d, want 0", got)
	}
	if got := c.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	if got := c.String(); got != "alpha=1 beta=5" {
		t.Fatalf("String = %q, want \"alpha=1 beta=5\"", got)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("Names = %v", names)
	}
	m := c.Map()
	if m["alpha"] != 1 || m["beta"] != 5 || len(m) != 2 {
		t.Fatalf("Map = %v", m)
	}
	// Get must not register phantom names.
	if got := len(c.Names()); got != 2 {
		t.Fatalf("Get registered a phantom name: %v", c.Names())
	}
}
