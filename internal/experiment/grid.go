package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
	"udwn/internal/sim"
)

// This file is the parallel execution engine of the experiment suite.
//
// Every experiment is a (cell × seed) grid whose entries are pure functions
// of their captured parameters — DESIGN.md §4 makes each simulation run a
// pure function of (topology seed, run seed) — so the grid can be evaluated
// in any order, on any number of workers, and still merge into the exact
// same table or plot. Runners declare their cells in report order, one
// dispatch loop fans them out to a pool of worker goroutines (a pool of one
// when Options.Workers is 1), and Run returns the results indexed by
// declaration order regardless of completion order. Aggregation then happens
// sequentially in the runner, so floating-point accumulation order (and
// therefore the rendered output) is byte-identical for every worker count.
//
// The purity contract for a Cell: construct every Network, Sim, driver and
// tracker it uses inside the closure (using the Options the scheduler
// passes in, not variables shared with other cells), and do not touch
// state outside the closure. The sim stack holds no package-level mutable
// state (all randomness flows through per-Sim rng.Sources; package vars are
// interface assertions only), so cells built this way are data-race free by
// construction. TestParallelRace and the -race tier-1 gate enforce this.
//
// The scheduler is self-healing: with Options.Report set, a panicking or
// deadline-overrunning cell no longer aborts the run. The failure is
// attributed to its (experiment, cell index, label) identity — labels carry
// the (row, seed) grid coordinates — retried within Options.Retries, and
// finally recorded in the RunReport while every other cell completes. The
// rendered output marks degraded cells as explicit FAILED(...) lines.
// Without a Report, Run keeps the historical behaviour: it starts no cell
// above one that already failed and panics with the lowest failing cell
// index, so even failures are deterministic.
//
// With Options.Checkpoint set the scheduler is additionally resumable: the
// purity of cells makes their results perfectly cacheable, so the worker
// that takes a labelled cell first reads the content-addressed store (key:
// experiment id, grid label, and a schema string covering the result type
// shape and the options that scale cell values). A hit replays the stored
// result, the cell's metrics snapshot and its original attempt count into
// the cell's declaration-order slot — registry merges are commutative, so
// which worker replays a cell, and when, is unobservable — and a miss runs
// the cell and appends it to the store the moment it completes, so an
// interrupted sweep loses at most the cells in flight.
// To attribute per-cell metrics exactly (a prerequisite for replay), each
// checkpointed attempt runs against a private registry that is merged into
// the shared one only on success; FAILED cells are never stored, keeping
// the self-healing retry path live across resumes.

// Cell is one independent unit of an experiment grid: a closure returning
// the typed measurements of a single (cell, seed) entry. The scheduler
// passes in the Options the cell must thread into its simulations (via
// Options.sim) — under checkpointing they carry a private metrics registry
// so the cell's instrumentation can be stored and replayed.
type Cell[T any] func(o Options) T

// Grid is an ordered collection of cells. The zero value is ready to use.
type Grid[T any] struct {
	cells  []Cell[T]
	labels []string
}

// Add declares the next cell in merge order with no identity label.
// Unlabelled cells are never checkpointed: the label is the cell's identity
// in the store.
func (g *Grid[T]) Add(c Cell[T]) { g.AddLabeled("", c) }

// AddLabeled declares the next cell in merge order together with an
// identity label (e.g. "row=1 seed=3") used to attribute failures and to
// address the cell's checkpoint record.
func (g *Grid[T]) AddLabeled(label string, c Cell[T]) {
	g.cells = append(g.cells, c)
	g.labels = append(g.labels, label)
}

// Len returns the number of declared cells.
func (g *Grid[T]) Len() int { return len(g.cells) }

// Failure identifies one grid cell that produced no result: which
// experiment, which cell (declaration index plus the runner's label, which
// encodes the (row, seed) coordinates), how many attempts were made, and
// why the last one died.
type Failure struct {
	Experiment string
	Cell       int
	Label      string
	Attempts   int
	// Reason is the first line of the panic value, or the deadline message
	// for cells that overran their CellTimeout.
	Reason string
	// Stack is the goroutine stack of the last panicking attempt; empty
	// for timeouts. It is kept out of rendered output (stacks are not
	// byte-stable) but available for debugging.
	Stack string
	// cancelled marks a cell stopped by run-level cancellation
	// (Options.Context): it is neither recorded as FAILED nor retried —
	// Run raises a Cancelled panic once in-flight cells have drained.
	cancelled bool
}

// String renders the failure as the explicit marker experiment output
// embeds in place of the degraded cell's contribution.
func (f Failure) String() string {
	exp := f.Experiment
	if exp == "" {
		exp = "grid"
	}
	label := f.Label
	if label == "" {
		label = "?"
	}
	return fmt.Sprintf("FAILED(%s cell %d [%s] after %d attempt(s)): %s",
		exp, f.Cell, label, f.Attempts, f.Reason)
}

// RunReport collects the failures and failure counters of self-healing grid
// runs. One report may span several experiments (cmd/experiments shares one
// across the whole suite); it is safe for concurrent use by grid workers.
type RunReport struct {
	mu       sync.Mutex
	failures []Failure
	counters *metrics.Counters
	timings  []metrics.CellTiming
}

// NewRunReport returns an empty report.
func NewRunReport() *RunReport {
	return &RunReport{counters: metrics.NewCounters()}
}

func (r *RunReport) add(f Failure) {
	r.mu.Lock()
	r.failures = append(r.failures, f)
	r.mu.Unlock()
}

// Failures returns the recorded failures sorted by (experiment, cell
// index), so reporting is deterministic regardless of worker scheduling.
// The sort is stable: when one report accumulates several runs of the same
// experiment (retried sweeps, repeated ids on the command line), failures
// sharing an (experiment, cell) identity keep their recording order instead
// of flapping between renders.
func (r *RunReport) Failures() []Failure {
	r.mu.Lock()
	out := append([]Failure(nil), r.failures...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// Counters exposes the failure counters ("cell-panics", "cell-timeouts",
// "cell-retries", "cell-recovered").
func (r *RunReport) Counters() *metrics.Counters { return r.counters }

func (r *RunReport) addTiming(ct metrics.CellTiming) {
	r.mu.Lock()
	r.timings = append(r.timings, ct)
	r.mu.Unlock()
}

// Timings returns the per-cell cost records of every grid cell run under
// this report, sorted by (experiment, cell index) so manifests are
// deterministic regardless of worker scheduling; like Failures the sort is
// stable so duplicate identities cannot reorder across runs. Wall-clock
// fields are machine-dependent; everything else (identity, attempts,
// failed) is not.
func (r *RunReport) Timings() []metrics.CellTiming {
	r.mu.Lock()
	out := append([]metrics.CellTiming(nil), r.timings...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// render returns the FAILED lines for one experiment id ("" = all), each
// newline-terminated; "" when the run was clean.
func (r *RunReport) render(exp string) string {
	var b strings.Builder
	for _, f := range r.Failures() {
		if exp != "" && f.Experiment != exp {
			continue
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders every recorded failure, one FAILED line each.
func (r *RunReport) String() string { return r.render("") }

// cellFail is the outcome of one failed attempt.
type cellFail struct {
	reason  string
	stack   string
	timeout bool
	// cancelled marks an attempt that ended on a sim.Cancelled panic: the
	// cell's context fired and the simulation stopped cooperatively. The
	// retry loop maps it to a deadline failure when the cell's own timeout
	// caused it, and to a run-level cancellation when Options.Context did.
	cancelled bool
}

// Cancelled is the panic value Grid.Run raises when Options.Context is
// cancelled mid-run: dispatch has stopped, in-flight cells have drained
// (finished normally, or stopped at their next tick under HardCancel), and
// every completed cell has committed to the checkpoint store when one is
// attached. Callers that installed the context recover it — cmd/experiments
// to write an interrupted manifest, the jobs daemon to park or fail the job.
type Cancelled struct {
	// Experiment is the interrupted run's id ("" outside the registry).
	Experiment string
	// Done counts cells that completed (including FAILED ones) before the
	// run stopped; Total is the grid size.
	Done, Total int
}

func (c Cancelled) String() string {
	exp := c.Experiment
	if exp == "" {
		exp = "grid"
	}
	return fmt.Sprintf("experiment: %s cancelled after %d/%d cells", exp, c.Done, c.Total)
}

// firstLine flattens a panic value to its first line for deterministic
// rendering.
func firstLine(v any) string {
	s := fmt.Sprint(v)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// gridAbort is the sentinel value the test-only crash hook panics with once
// Options.abortAfterCells cells have committed. Tests recover it to
// simulate a run killed mid-sweep without tearing down the process.
type gridAbort struct{ committed int }

func (a gridAbort) String() string {
	return fmt.Sprintf("experiment: grid aborted by test hook after %d committed cell(s)", a.committed)
}

// cellCache binds a grid run to its checkpoint store: the store handle plus
// the schema string that — together with the experiment id and each cell's
// label — forms the content address of every record this run reads or
// writes.
type cellCache struct {
	store  *checkpoint.Store
	schema string
}

// newCellCache derives the run's cache binding. The schema string captures
// everything besides (experiment, label) that determines a cell's value or
// its stored instrumentation: the structural shape of T (stale shapes must
// miss, not mis-decode), Quick (which rescales every cell), and whether
// metrics are being collected (which changes what a record's snapshot must
// replay).
func newCellCache[T any](o Options) *cellCache {
	if o.Checkpoint == nil {
		return nil
	}
	schema := fmt.Sprintf("v1|quick=%t|metrics=%t|%s",
		o.Quick, o.Metrics != nil,
		checkpoint.SchemaOf(reflect.TypeOf((*T)(nil)).Elem()))
	return &cellCache{store: o.Checkpoint, schema: schema}
}

func (c *cellCache) key(experiment, label string) checkpoint.Key {
	return checkpoint.KeyOf(experiment, label, c.schema)
}

// recoverFail maps a recovered panic value to a cellFail: a sim.Cancelled
// sentinel becomes a cancellation outcome (no stack — it is an expected
// control transfer, not a bug), anything else a genuine cell panic.
func recoverFail(p any) *cellFail {
	if c, ok := p.(sim.Cancelled); ok {
		return &cellFail{reason: c.String(), cancelled: true}
	}
	return &cellFail{reason: firstLine(p), stack: string(debug.Stack())}
}

// attempt runs cell i once against co, in its own goroutine raced against a
// deadline timer; with no deadline the timer channel is nil and the worker
// simply waits for the cell. A cell that overruns its deadline is cancelled
// from the scheduler's point of view — the worker stops waiting and moves
// on — and, because co.Context carries the same deadline, the cell's
// simulation panics sim.Cancelled at its next tick, so the goroutine
// terminates instead of leaking. Its parked result goes to a buffered
// channel nobody reads, so a late completion can never race the merged
// results; cells that never consult the context (plain closures) are merely
// abandoned, exactly the historical behaviour.
func (g *Grid[T]) attempt(i int, co Options, deadline time.Duration) (val T, fail *cellFail) {
	type res struct {
		val  T
		fail *cellFail
	}
	ch := make(chan res, 1)
	go func() {
		var r res
		defer func() { ch <- r }()
		defer func() {
			if p := recover(); p != nil {
				r.fail = recoverFail(p)
			}
		}()
		r.val = g.cells[i](co)
	}()
	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		return r.val, r.fail
	case <-timeout:
		return val, &cellFail{
			reason:  fmt.Sprintf("cell deadline %s exceeded", deadline),
			timeout: true,
		}
	}
}

// heapAllocBytes reads the process-wide cumulative heap allocation total —
// cheaper than runtime.ReadMemStats (no stop-the-world) and good enough for
// the per-cell budget deltas the manifest records. Under concurrent workers
// the delta includes other cells' allocations; metrics.CellTiming documents
// the caveat.
func heapAllocBytes() int64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		return int64(s[0].Value.Uint64())
	}
	return 0
}

// runCell evaluates cell i with o's deadline and retry budget, storing the
// result into out on success. It returns the attributed failure once the
// budget is exhausted, nil on success. With a Report or Metrics configured
// the cell's total cost (wall clock across all attempts, heap allocation
// delta when a registry is attached) is recorded as a CellTiming and into
// the "grid/cell" timer. With cc non-nil a labelled cell is first served
// from the checkpoint store when it holds the cell's record, and a
// successfully computed one is appended to it together with its private
// metrics snapshot and attempt count.
func (g *Grid[T]) runCell(i int, o Options, cc *cellCache, out []T) *Failure {
	if cc != nil && g.labels[i] != "" {
		// The grid's only store read. A committed record — already in the
		// store, or committed by another goroutine (typically another job
		// sharing the daemon's store) that was computing this exact cell
		// while we waited — is replayed. Otherwise this goroutine leads the
		// flight: it computes below and resolves the flight on every exit
		// path (deferred, so a panicking cell still releases its waiters); a
		// leader that fails or is cancelled commits nothing, which promotes
		// one waiter to recompute. A waiter whose run context fires during
		// the wait falls through and computes on its own.
		key := cc.key(o.Name, g.labels[i])
		rec, leader := cc.store.JoinFlight(o.Context, key)
		if !leader && rec != nil && g.replayCell(i, o, rec, out) {
			return nil
		}
		if leader {
			defer cc.store.LeaveFlight(key)
		}
	}
	instr := o.Metrics != nil
	record := instr || o.Report != nil
	var start time.Time
	var alloc0 int64
	if record {
		start = time.Now()
		if instr {
			alloc0 = heapAllocBytes()
		}
	}
	f, attempts, cellReg := g.runCellAttempts(i, o, cc, out)
	if f != nil && f.cancelled {
		// A run-cancelled cell neither completed nor failed: it leaves no
		// timing record, no FAILED marker and no checkpoint entry, and is
		// recomputed by the resumed run.
		return f
	}
	if record {
		wall := time.Since(start)
		var allocs int64
		if instr {
			allocs = heapAllocBytes() - alloc0
			o.Metrics.Counter("grid/cells").Inc()
			o.Metrics.Timer("grid/cell").Observe(wall, allocs)
		}
		if o.Report != nil {
			o.Report.addTiming(metrics.CellTiming{
				Experiment: o.Name,
				Cell:       i,
				Label:      g.labels[i],
				Attempts:   attempts,
				Failed:     f != nil,
				WallNs:     int64(wall),
				AllocBytes: allocs,
			})
		}
	}
	if f == nil && cc != nil && g.labels[i] != "" {
		g.storeCell(i, o, cc, cellReg, attempts, out)
	}
	return f
}

// storeCell appends cell i's freshly computed result to the checkpoint
// store. Storage failures are counted in the store's session stats and
// otherwise ignored: the run already holds the correct value, the cell is
// simply not cached.
func (g *Grid[T]) storeCell(i int, o Options, cc *cellCache, cellReg *metrics.Registry, attempts int, out []T) {
	value, err := checkpoint.EncodeValue(&out[i])
	if err != nil {
		cc.store.NoteError()
		return
	}
	var snap []byte
	if cellReg != nil {
		// Timing fields are zeroed so the stored bytes — and therefore the
		// store's content hash — are a pure function of the cell's
		// coordinates.
		snap, err = json.Marshal(cellReg.Snapshot().ZeroTimings())
		if err != nil {
			cc.store.NoteError()
			return
		}
	}
	// Put's error path already counted the failure; nothing else to do.
	_ = cc.store.Put(checkpoint.Record{
		Experiment: o.Name,
		Label:      g.labels[i],
		Schema:     cc.schema,
		Attempts:   attempts,
		Value:      value,
		Metrics:    snap,
	})
}

// replayCell serves cell i from its checkpoint record: the stored value
// lands in the cell's declaration-order slot, the stored metrics snapshot
// merges into the run registry, and the bookkeeping a live run would emit —
// "grid/cells", the "grid/cell" timer, the CellTiming with the cell's
// original attempt count — is emitted identically, so a resumed run's
// manifest matches an uninterrupted one byte for byte (modulo the timing
// fields ZeroTimings clears). A decode failure reports false and the cell
// runs fresh.
func (g *Grid[T]) replayCell(i int, o Options, rec *checkpoint.Record, out []T) bool {
	var val T
	if err := checkpoint.DecodeValue(rec.Value, &val); err != nil {
		o.Checkpoint.NoteError()
		return false
	}
	if o.Metrics != nil && len(rec.Metrics) > 0 {
		var snap metrics.Snapshot
		if err := json.Unmarshal(rec.Metrics, &snap); err != nil {
			o.Checkpoint.NoteError()
			return false
		}
		o.Metrics.MergeSnapshot(&snap)
	}
	out[i] = val
	if o.Metrics != nil {
		o.Metrics.Counter("grid/cells").Inc()
		o.Metrics.Timer("grid/cell").Observe(0, 0)
	}
	if o.Report != nil {
		o.Report.addTiming(metrics.CellTiming{
			Experiment: o.Name,
			Cell:       i,
			Label:      g.labels[i],
			Attempts:   rec.Attempts,
		})
	}
	return true
}

// cellContext derives the context one cell attempt runs under: the run
// context when HardCancel propagates it, tightened by the per-cell deadline
// when one is set. The returned cancel func must be called when the attempt
// resolves; both returns are nil when the cell needs no context at all.
func cellContext(o Options) (context.Context, context.CancelFunc) {
	var base context.Context
	if o.HardCancel && o.Context != nil {
		base = o.Context
	}
	if o.CellTimeout <= 0 {
		return base, nil
	}
	if base == nil {
		base = context.Background()
	}
	return context.WithTimeout(base, o.CellTimeout)
}

// runCellAttempts is runCell's retry loop, returning the final failure (nil
// on success), the number of attempts actually made, and — under
// checkpointing — the private registry the successful attempt recorded
// into. Each checkpointed attempt gets a fresh registry merged into the
// shared one only on success, so a panicking attempt's partial
// instrumentation never leaks into the run totals or the store.
//
// Each attempt runs under its own context (see cellContext): a deadline
// overrun stops the simulation cooperatively and is retried like any
// timeout, while a run-level cancellation under HardCancel ends the loop
// immediately with a cancelled failure that Run translates into a Cancelled
// panic rather than a FAILED record.
func (g *Grid[T]) runCellAttempts(i int, o Options, cc *cellCache, out []T) (*Failure, int, *metrics.Registry) {
	attempts := 1 + o.Retries
	if attempts < 1 {
		attempts = 1
	}
	isolate := cc != nil && o.Metrics != nil
	var last *cellFail
	for a := 1; a <= attempts; a++ {
		co := o
		var cellReg *metrics.Registry
		if isolate {
			cellReg = metrics.NewRegistry()
			co.Metrics = cellReg
		}
		ctx, cancel := cellContext(o)
		co.Context = ctx
		val, fail := g.attempt(i, co, o.CellTimeout)
		if cancel != nil {
			cancel()
		}
		if fail != nil && fail.cancelled {
			if o.Context != nil && o.Context.Err() != nil {
				// The run itself was cancelled; surface that, untallied.
				return &Failure{
					Experiment: o.Name,
					Cell:       i,
					Label:      g.labels[i],
					Attempts:   a,
					Reason:     fail.reason,
					cancelled:  true,
				}, a, nil
			}
			// The cell's own deadline stopped the simulation before the
			// scheduler's timer fired; treat it exactly like a timeout.
			fail.timeout = true
		}
		if fail == nil {
			out[i] = val
			if isolate {
				o.Metrics.MergeSnapshot(cellReg.Snapshot())
			}
			if a > 1 && o.Report != nil {
				o.Report.counters.Add("cell-recovered", 1)
			}
			return nil, a, cellReg
		}
		last = fail
		if o.Report != nil {
			if fail.timeout {
				o.Report.counters.Add("cell-timeouts", 1)
			} else {
				o.Report.counters.Add("cell-panics", 1)
			}
			if a < attempts {
				o.Report.counters.Add("cell-retries", 1)
			}
		}
	}
	return &Failure{
		Experiment: o.Name,
		Cell:       i,
		Label:      g.labels[i],
		Attempts:   attempts,
		Reason:     last.reason,
		Stack:      last.stack,
	}, attempts, nil
}

// Run evaluates every cell and returns the results in declaration order.
// One dispatch loop hands the cells, in declaration order, to a pool of
// min(o.workers(), cells) worker goroutines — one worker is simply a pool
// of one.
//
// With o.Report set the run is self-healing (see the file comment): failed
// cells leave the zero T in their slot and are recorded in the report.
// Without it, a failing cell panics Run with the cell index and the
// original message; when several cells fail, the lowest index wins, so
// even failures are deterministic, and no cell above a failed one starts.
//
// With o.Checkpoint set, the worker that takes a labelled cell replays it
// when the store holds its record (see the file comment) and otherwise
// computes it and appends the result as it completes; the merged output is
// byte-identical either way.
func (g *Grid[T]) Run(o Options) []T {
	out := make([]T, len(g.cells))
	workers := min(o.workers(), len(g.cells))
	heal := o.Report != nil
	cc := newCellCache[T](o)

	// notify serialises Progress callbacks across workers and keeps the
	// done/failed tallies (also the Done payload of a Cancelled panic); the
	// callback itself never runs concurrently.
	var progMu sync.Mutex
	done, failed := 0, 0
	notify := func(cellFailed bool) {
		progMu.Lock()
		done++
		if cellFailed {
			failed++
		}
		if o.Progress != nil {
			o.Progress(Progress{Experiment: o.Name, Done: done, Total: len(g.cells), Failed: failed})
		}
		progMu.Unlock()
	}

	// stopped reports run-level cancellation; once it fires no further cell
	// starts and Run ends in a Cancelled panic after the in-flight ones
	// drain.
	stopped := func() bool { return o.Context != nil && o.Context.Err() != nil }

	// committed implements the test-only crash hook: cells that completed —
	// run, replayed, or recorded as FAILED — count toward the abort
	// threshold, and crossing it makes Run panic with a gridAbort sentinel
	// once in-flight cells have drained.
	var committed atomic.Int64
	abort := func() bool {
		return o.abortAfterCells > 0 &&
			committed.Add(1) >= int64(o.abortAfterCells)
	}

	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		firstPan *Failure
		aborted  atomic.Bool
	)
	// afterFailure reports whether cell i lies above a cell that already
	// failed. Only a run without a Report records failures here, and only
	// the lowest failing index decides its panic, so such a cell is skipped.
	afterFailure := func(i int) bool {
		panicMu.Lock()
		defer panicMu.Unlock()
		return firstPan != nil && i > firstPan.Cell
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if aborted.Load() || stopped() || afterFailure(i) {
					// The run stopped, or a lower cell already failed: the
					// rest of the grid drains unstarted.
					continue
				}
				f := g.runCell(i, o, cc, out)
				if f != nil && f.cancelled {
					// Run-level cancellation: this cell simply produced
					// nothing.
					continue
				}
				notify(f != nil)
				if abort() {
					aborted.Store(true)
				}
				if f == nil {
					continue
				}
				if heal {
					o.Report.add(*f)
					continue
				}
				panicMu.Lock()
				if firstPan == nil || f.Cell < firstPan.Cell {
					firstPan = f
				}
				panicMu.Unlock()
			}
		}()
	}
	for i := range g.cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstPan != nil {
		panic(fmt.Sprintf("experiment: grid cell %d: %s\n%s",
			firstPan.Cell, firstPan.Reason, firstPan.Stack))
	}
	if aborted.Load() {
		panic(gridAbort{committed: int(committed.Load())})
	}
	// A context that fired only after every cell completed interrupts
	// nothing: the run is whole, return it.
	if stopped() && done < len(g.cells) {
		panic(Cancelled{Experiment: o.Name, Done: done, Total: len(g.cells)})
	}
	return out
}

// runSeedGrid is the common grid shape: rows × o.seeds() cells, where
// fn(o, row, seed) computes one entry with the scheduler-supplied Options
// threaded into every simulation it builds. Results come back as
// [row][seed], so runners aggregate with the same row-major, seed-minor
// loops they always used. Cells are labelled with their (row, seed)
// coordinates, which both attributes failures and addresses the cells'
// checkpoint records.
func runSeedGrid[T any](o Options, rows int, fn func(o Options, row, seed int) T) [][]T {
	seeds := o.seeds()
	var g Grid[T]
	for row := 0; row < rows; row++ {
		for seed := 0; seed < seeds; seed++ {
			row, seed := row, seed
			g.AddLabeled(fmt.Sprintf("row=%d seed=%d", row, seed),
				func(co Options) T { return fn(co, row, seed) })
		}
	}
	flat := g.Run(o)
	out := make([][]T, rows)
	for row := 0; row < rows; row++ {
		out[row] = flat[row*seeds : (row+1)*seeds]
	}
	return out
}
