package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		if got := report.Counters().Get("cell-panics"); got != 1 {
			t.Fatalf("workers=%d: cell-panics = %d, want 1", workers, got)
		}
	}
}

// A cell that exceeds its deadline is cancelled and marked FAILED — the run
// completes instead of hanging, and the abandoned goroutine's late result
// never contaminates the merged output.
func TestGridDeadlineCancelsStuckCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		release := make(chan struct{})
		var g Grid[int]
		for i := 0; i < 8; i++ {
			i := i
			g.AddLabeled(fmt.Sprintf("row=%d seed=0", i), func(Options) int {
				if i == 5 {
					<-release // stuck until the test ends
					return -1
				}
				return i
			})
		}
		report := NewRunReport()
		done := make(chan []int, 1)
		go func() {
			done <- g.Run(Options{Workers: workers, Report: report,
				CellTimeout: 50 * time.Millisecond, Name: "hang"})
		}()
		var res []int
		select {
		case res = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: run hung on the stuck cell", workers)
		}
		for i, v := range res {
			want := i
			if i == 5 {
				want = 0
			}
			if v != want {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, want)
			}
		}
		fails := report.Failures()
		if len(fails) != 1 || fails[0].Cell != 5 ||
			!strings.Contains(fails[0].Reason, "deadline") {
			t.Fatalf("workers=%d: wrong failures: %v", workers, fails)
		}
		if got := report.Counters().Get("cell-timeouts"); got != 1 {
			t.Fatalf("workers=%d: cell-timeouts = %d, want 1", workers, got)
		}
		close(release) // unblock the abandoned goroutine
	}
}

// A cell is a pure function of its coordinates, so a panic would repeat:
// the grid calls a panicking cell's closure once, records it as FAILED, and
// counts one cell-panic and nothing else.
func TestGridCellRunsOnce(t *testing.T) {
	var okCalls, brokenCalls atomic.Int64
	var g Grid[int]
	g.AddLabeled("ok", func(Options) int {
		okCalls.Add(1)
		return 7
	})
	g.AddLabeled("broken", func(Options) int {
		brokenCalls.Add(1)
		panic("permanent")
	})
	report := NewRunReport()
	res := g.Run(Options{Workers: 1, Report: report, Name: "once"})
	if res[0] != 7 || res[1] != 0 {
		t.Fatalf("results = %v, want [7 0]", res)
	}
	if okCalls.Load() != 1 || brokenCalls.Load() != 1 {
		t.Fatalf("calls: ok=%d broken=%d, want 1 and 1", okCalls.Load(), brokenCalls.Load())
	}
	fails := report.Failures()
	if len(fails) != 1 || fails[0].Cell != 1 || fails[0].Reason != "permanent" {
		t.Fatalf("wrong failures: %+v", fails)
	}
	if got := report.Counters().Map(); !reflect.DeepEqual(got, map[string]int64{"cell-panics": 1}) {
		t.Fatalf("counters = %v, want only cell-panics=1", got)
	}
}

// Without a Report, deadlines still apply but failures keep the historical
// contract: Run panics with the lowest failing cell index.
func TestGridDeadlineWithoutReportPanics(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var g Grid[int]
	g.Add(func(Options) int { <-release; return 0 })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic without a report")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "deadline") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	g.Run(Options{Workers: 1, CellTimeout: 50 * time.Millisecond})
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
