package jobs

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFloodShedsNotCrashes hammers a deliberately tiny pool with thousands
// of concurrent submissions over real HTTP and pins the robustness
// contract: every request gets a definite answer (202 accepted or 429 shed
// — nothing else), the daemon stays healthy throughout, the bookkeeping
// balances exactly, and memory stays inside a fixed envelope because
// shedding refuses work instead of queueing it.
func TestFloodShedsNotCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("flood test")
	}
	var started atomic.Int64
	r := func(ctx context.Context, spec Spec, rc RunContext) (string, error) {
		started.Add(1)
		time.Sleep(time.Millisecond)
		return "ok", nil
	}
	cfg := testConfig(t, r)
	cfg.Workers = 2
	cfg.MaxWeight = 16
	s, ts := newTestAPI(t, cfg)

	var mem0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)

	const (
		clients    = 50
		perClient  = 60
		totalCalls = clients * perClient // 3000 submissions
	)
	var accepted, shed, other atomic.Int64
	var wg sync.WaitGroup
	client := ts.Client()
	client.Timeout = 30 * time.Second
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := client.Post(ts.URL+"/jobs", "application/json",
					strings.NewReader(`{"experiments":["table1"],"quick":true}`))
				if err != nil {
					other.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						other.Add(1)
					} else {
						shed.Add(1)
					}
				default:
					other.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d requests got neither 202 nor 429-with-Retry-After", other.Load())
	}
	if accepted.Load()+shed.Load() != totalCalls {
		t.Fatalf("accepted %d + shed %d != %d", accepted.Load(), shed.Load(), totalCalls)
	}
	if shed.Load() == 0 {
		t.Fatal("a 2-worker pool absorbed 3000 concurrent submissions without shedding")
	}
	if accepted.Load() == 0 {
		t.Fatal("everything shed: the pool made no progress at all")
	}

	// The daemon must still be answering.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after flood: %v / %v", hr, err)
	}
	hr.Body.Close()

	// Server-side bookkeeping must balance the client-side tallies.
	reg := s.Metrics()
	if got := reg.CounterValue("jobs/accepted"); got != accepted.Load() {
		t.Fatalf("jobs/accepted = %d, clients saw %d", got, accepted.Load())
	}
	if got := reg.CounterValue("jobs/shed"); got != shed.Load() {
		t.Fatalf("jobs/shed = %d, clients saw %d", got, shed.Load())
	}
	// The weight budget bounds the queue: every job weighs at least 1, and
	// the weight counts queued and running jobs alike.
	queueHigh := reg.Gauge("jobs/queue-high-water").Value()
	weightHigh := reg.Gauge("jobs/weight-high-water").Value()
	if queueHigh > weightHigh || weightHigh > int64(cfg.MaxWeight) {
		t.Fatalf("queue high water %d, weight high water %d, MaxWeight %d: want queue <= weight <= MaxWeight",
			queueHigh, weightHigh, cfg.MaxWeight)
	}

	// Every accepted job reaches a terminal state.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if reg.CounterValue("jobs/done") == accepted.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d accepted jobs finished", reg.CounterValue("jobs/done"), accepted.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if started.Load() != accepted.Load() {
		t.Fatalf("runner ran %d times for %d accepted jobs", started.Load(), accepted.Load())
	}

	// Memory envelope: shedding bounds live state to the queue + terminal
	// records, so heap growth over the whole flood stays far below what
	// queueing 3000 jobs' grids would cost. 64 MiB is a generous fixed
	// ceiling (observed growth is a few MiB).
	runtime.GC()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	growth := int64(mem1.HeapAlloc) - int64(mem0.HeapAlloc)
	if growth > 64<<20 {
		t.Fatalf("heap grew %d MiB over the flood; load shedding is not bounding memory", growth>>20)
	}
}
