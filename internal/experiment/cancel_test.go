package experiment

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"udwn/internal/sim"
)

// runExpectCancelled runs f expecting it to panic with Cancelled.
func runExpectCancelled(t *testing.T, f func()) (c Cancelled) {
	t.Helper()
	defer func() {
		p := recover()
		var ok bool
		if c, ok = p.(Cancelled); !ok {
			t.Fatalf("expected Cancelled panic, got %v", p)
		}
	}()
	f()
	t.Fatal("run completed despite cancellation")
	return
}

// TestGridContextCancelStopsDispatch pins the soft-cancellation contract:
// once Options.Context fires, the scheduler dispatches no further cells,
// lets the in-flight ones finish, and Run unwinds with a Cancelled sentinel
// reporting partial progress — on both the sequential and parallel paths.
func TestGridContextCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		var g Grid[int]
		const total = 32
		for i := 0; i < total; i++ {
			g.Add(func(Options) int {
				if ran.Add(1) == 4 {
					cancel()
				}
				return 1
			})
		}
		c := runExpectCancelled(t, func() {
			g.Run(Options{Name: "stopdispatch", Workers: workers, Context: ctx})
		})
		cancel()
		if c.Total != total {
			t.Fatalf("workers=%d: Cancelled.Total = %d, want %d", workers, c.Total, total)
		}
		if c.Done >= total || c.Done < 4 {
			t.Fatalf("workers=%d: Cancelled.Done = %d, want partial progress in [4, %d)", workers, c.Done, total)
		}
		// In-flight cells may finish after the cancel, but the bulk of the
		// grid must never have been dispatched.
		if n := ran.Load(); n >= total {
			t.Fatalf("workers=%d: %d/%d cells ran after cancellation", workers, n, total)
		}
	}
}

// TestGridContextCancelAfterCompletionReturnsWholeRun pins the edge case: a
// context that fires only after every cell was dispatched and completed
// interrupts nothing — the whole result comes back instead of a Cancelled
// panic discarding finished work.
func TestGridContextCancelAfterCompletionReturnsWholeRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		var g Grid[int]
		const total = 8
		for i := 0; i < total; i++ {
			i := i
			g.Add(func(Options) int {
				if ran.Add(1) == total {
					cancel()
				}
				return i
			})
		}
		got := g.Run(Options{Name: "latecancel", Workers: workers, Context: ctx})
		cancel()
		if len(got) != total {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), total)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i)
			}
		}
	}
}

// TestGridHardCancelStopsInFlightCells pins the daemon-facing knob: with
// HardCancel the run context reaches each cell as co.Context, so a
// cooperative cell (a simulation polling Config.Cancel each tick) stops
// mid-flight instead of running to completion — the grid must unwind
// promptly even though every cell would otherwise block forever.
func TestGridHardCancelStopsInFlightCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 4
	started := make(chan struct{}, total)
	var g Grid[int]
	for i := 0; i < total; i++ {
		g.Add(func(co Options) int {
			started <- struct{}{}
			<-co.Context.Done()
			panic(sim.Cancelled{Tick: 7})
		})
	}
	res := make(chan Cancelled, 1)
	go func() {
		defer func() {
			if c, ok := recover().(Cancelled); ok {
				res <- c
			}
		}()
		g.Run(Options{Name: "hardcancel", Workers: total, Context: ctx, HardCancel: true})
	}()
	for i := 0; i < total; i++ {
		select {
		case <-started:
		case <-time.After(30 * time.Second):
			t.Fatal("cells never started")
		}
	}
	cancel()
	select {
	case c := <-res:
		if c.Done != 0 || c.Total != total {
			t.Fatalf("Cancelled reports %d/%d, want 0/%d (no cell completed)", c.Done, c.Total, total)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hard cancel did not stop in-flight cells")
	}
}

// TestEveryRunnerHonoursHardCancel pins that every registered experiment
// builds its simulators through Options.newSim, so they poll the grid's
// cancel hook: with the context cancelled on the first slot, a
// hard-cancelled run must stop its in-flight cell before any cell completes.
func TestEveryRunnerHonoursHardCancel(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := QuickOptions()
			o.Seeds, o.Workers = 1, 1
			o.Context, o.HardCancel = ctx, true
			o.Observer = func(sim.SlotEvent) { cancel() }
			c := runExpectCancelled(t, func() { e.Run(o) })
			if c.Done != 0 {
				t.Fatalf("%v, want 0 completed cells", c)
			}
		})
	}
}

// TestGridRunDeadlineLeaksNoGoroutines pins the daemon's deadline path: a
// job's run context carries its deadline, and under HardCancel every cell
// polls it like a simulation's per-tick Cancel hook. When it fires, every
// in-flight cell stops, Run panics Cancelled with no cell FAILED, and the
// goroutine count returns to its level before the run.
func TestGridRunDeadlineLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	const total = 8
	var g Grid[int]
	for i := 0; i < total; i++ {
		g.Add(func(co Options) int {
			// Never finishes on its own.
			for {
				select {
				case <-co.Context.Done():
					panic(sim.Cancelled{Tick: 0})
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
	rep := NewRunReport()
	c := runExpectCancelled(t, func() {
		g.Run(Options{Name: "leakcheck", Workers: 4, Context: ctx, HardCancel: true, Report: rep})
	})
	if c.Done != 0 || c.Total != total {
		t.Fatalf("Cancelled reports %d/%d, want 0/%d", c.Done, c.Total, total)
	}
	if n := len(rep.Failures()); n != 0 {
		t.Fatalf("%d cells FAILED, want 0 (the run's deadline stopped them)", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cell goroutines leaked: %d before run, %d after settling",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGridCancelledCellsLeaveNoRecords pins that a run-cancelled cell is
// neither FAILED nor checkpointed: resuming must recompute it fresh.
func TestGridCancelledCellsLeaveNoRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var g Grid[int]
	const total = 6
	for i := 0; i < total; i++ {
		i := i
		g.AddLabeled("cell", func(co Options) int {
			if i == 2 {
				cancel()
				<-co.Context.Done()
				panic(sim.Cancelled{Tick: 1})
			}
			return i
		})
	}
	rep := NewRunReport()
	runExpectCancelled(t, func() {
		g.Run(Options{
			Name:       "norecords",
			Workers:    1,
			Context:    ctx,
			HardCancel: true,
			Report:     rep,
		})
	})
	if n := len(rep.Failures()); n != 0 {
		t.Fatalf("cancelled run recorded %d FAILED cell(s), want 0: %v", n, rep.Failures())
	}
}
