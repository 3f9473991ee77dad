package experiment

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udwn/internal/sim"
)

// TestGridCellsOverlap proves the scheduler genuinely fans cells out: eight
// cells rendezvous at a barrier that only releases once all eight have
// started, so Run can finish only if they execute concurrently. (A secretly
// sequential scheduler would hang, hence the timeout.)
func TestGridCellsOverlap(t *testing.T) {
	const workers = 8
	var g Grid[bool]
	var started sync.WaitGroup
	started.Add(workers)
	for i := 0; i < workers; i++ {
		g.Add(func(Options) bool {
			started.Done()
			started.Wait()
			return true
		})
	}
	done := make(chan []bool, 1)
	go func() { done <- g.Run(Options{Workers: workers}) }()
	select {
	case res := <-done:
		for i, ok := range res {
			if !ok {
				t.Fatalf("cell %d missing", i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cells never overlapped: scheduler is not concurrent")
	}
}

func TestGridPreservesDeclarationOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		var g Grid[int]
		for i := 0; i < 100; i++ {
			i := i
			g.Add(func(Options) int { return i * i })
		}
		got := g.Run(Options{Workers: workers})
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestGridRunsEveryCellExactlyOnce(t *testing.T) {
	var calls atomic.Int64
	var g Grid[struct{}]
	for i := 0; i < 37; i++ {
		g.Add(func(Options) struct{} { calls.Add(1); return struct{}{} })
	}
	g.Run(Options{Workers: 8})
	if n := calls.Load(); n != 37 {
		t.Fatalf("cells ran %d times, want 37", n)
	}
}

func TestGridEmptyAndSingle(t *testing.T) {
	var g Grid[int]
	if got := g.Run(Options{Workers: 8}); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
	g.Add(func(Options) int { return 7 })
	if got := g.Run(Options{Workers: 8}); len(got) != 1 || got[0] != 7 {
		t.Fatalf("single-cell grid returned %v", got)
	}
}

// Without a Report, a panicking cell must panic Run with the lowest
// failing cell index, so failures are deterministic regardless of
// scheduling, and only once every cell has run.
func TestGridPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var g Grid[int]
		var ran atomic.Int64
		for i := 0; i < 16; i++ {
			i := i
			g.Add(func(Options) int {
				ran.Add(1)
				if i == 3 || i == 12 {
					panic("boom")
				}
				return i
			})
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "grid cell 3: boom") {
					t.Fatalf("workers=%d: wrong panic: %v", workers, r)
				}
				if n := ran.Load(); n != 16 {
					t.Fatalf("workers=%d: %d cells ran, want 16", workers, n)
				}
			}()
			g.Run(Options{Workers: workers})
		}()
	}
}

// With a Report the grid is self-healing: a panicking cell is recorded with
// its (experiment, cell, label) identity and every other cell completes.
func TestGridHealsPanic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var g Grid[int]
		for i := 0; i < 16; i++ {
			i := i
			g.AddLabeled(fmt.Sprintf("row=%d seed=0", i), func(Options) int {
				if i == 3 {
					panic("boom")
				}
				return i + 100
			})
		}
		report := NewRunReport()
		res := g.Run(Options{Workers: workers, Report: report, Name: "table99"})
		for i, v := range res {
			want := i + 100
			if i == 3 {
				want = 0 // failed cells leave the zero value
			}
			if v != want {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, want)
			}
		}
		fails := report.Failures()
		if len(fails) != 1 {
			t.Fatalf("workers=%d: %d failures, want 1: %v", workers, len(fails), fails)
		}
		f := fails[0]
		if f.Experiment != "table99" || f.Cell != 3 || f.Label != "row=3 seed=0" ||
			f.Reason != "boom" {
			t.Fatalf("workers=%d: failure identity wrong: %+v", workers, f)
		}
		if f.Stack == "" {
			t.Fatalf("workers=%d: panic failure must carry a stack", workers)
		}
		want := "FAILED(table99 cell 3 [row=3 seed=0]): boom"
		if f.String() != want {
			t.Fatalf("workers=%d: marker %q, want %q", workers, f.String(), want)
		}
	}
}

// A cell is a pure function of its coordinates, so a panic would repeat:
// the grid calls a panicking cell's closure once, on the worker goroutine
// that took it, and records it as FAILED. A cell that panics sim.Cancelled
// while the run context is live is failed the same way, never dropped as a
// cancelled one.
func TestGridCellRunsOnce(t *testing.T) {
	var okCalls, brokenCalls, cancelledCalls atomic.Int64
	var g Grid[int]
	before := runtime.NumGoroutine()
	g.AddLabeled("ok", func(Options) int {
		okCalls.Add(1)
		// One worker and no goroutine per cell: the cell runs on the
		// worker, the only goroutine Run starts.
		if n := runtime.NumGoroutine(); n > before+1 {
			panic(fmt.Sprintf("%d goroutines while a cell runs, %d before Run", n, before))
		}
		return 7
	})
	g.AddLabeled("broken", func(Options) int {
		brokenCalls.Add(1)
		panic("permanent")
	})
	g.AddLabeled("cancelled", func(Options) int {
		cancelledCalls.Add(1)
		panic(sim.Cancelled{Tick: 4})
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	report := NewRunReport()
	res := g.Run(Options{Workers: 1, Report: report, Name: "once", Context: ctx, HardCancel: true})
	if !reflect.DeepEqual(res, []int{7, 0, 0}) {
		t.Fatalf("results = %v, want [7 0 0]", res)
	}
	if okCalls.Load() != 1 || brokenCalls.Load() != 1 || cancelledCalls.Load() != 1 {
		t.Fatalf("calls: ok=%d broken=%d cancelled=%d, want 1 each",
			okCalls.Load(), brokenCalls.Load(), cancelledCalls.Load())
	}
	var markers []string
	for _, f := range report.Failures() {
		markers = append(markers, f.String())
	}
	want := []string{
		"FAILED(once cell 1 [broken]): permanent",
		"FAILED(once cell 2 [cancelled]): sim: run cancelled at tick 4",
	}
	if !reflect.DeepEqual(markers, want) {
		t.Fatalf("failures = %q, want %q", markers, want)
	}
}

func TestRunSeedGridShape(t *testing.T) {
	type pair struct{ Row, Seed int }
	o := Options{Seeds: 3, Workers: 4}
	got := runSeedGrid(o, 5, func(_ Options, row, seed int) pair { return pair{row, seed} })
	if len(got) != 5 {
		t.Fatalf("got %d rows, want 5", len(got))
	}
	for r, rowRes := range got {
		if len(rowRes) != 3 {
			t.Fatalf("row %d has %d seeds, want 3", r, len(rowRes))
		}
		for s, p := range rowRes {
			if p.Row != r || p.Seed != s {
				t.Fatalf("cell (%d,%d) computed as (%d,%d)", r, s, p.Row, p.Seed)
			}
		}
	}
}

func TestOptionsWorkersDefault(t *testing.T) {
	if (Options{}).workers() < 1 {
		t.Fatal("default workers must be at least 1")
	}
	if (Options{Workers: 6}).workers() != 6 {
		t.Fatal("explicit workers not honoured")
	}
}
