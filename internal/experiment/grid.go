package experiment

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
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
// The scheduler is self-healing: a panicking cell never aborts the run. The
// failure is attributed to its (experiment, cell index, label) identity —
// labels carry the (row, seed) grid coordinates — and recorded in a
// RunReport while every other cell completes. A cell runs once, on the
// worker goroutine that took it: it is a pure function of its coordinates,
// so a panic would repeat.
// The report is the caller's Options.Report, whose failures the rendered
// output marks as explicit FAILED(...) lines; without one, Run keeps a
// private report and, once every cell has run, panics with the lowest
// failing cell index, so even failures are deterministic.
//
// Every cell records into a private metrics registry, merged into
// Options.Metrics only when the cell succeeds: a failed cell's partial
// instrumentation never reaches the run totals, and each cell's own
// snapshot is exact, which is what a checkpoint record stores.
//
// With Options.Checkpoint set the scheduler is additionally resumable: the
// purity of cells makes their results perfectly cacheable, so the worker
// that takes a labelled cell first reads the content-addressed store (key:
// experiment id, grid label, and a schema string covering the result type
// shape and the options that scale cell values). A hit replays the stored
// result and the cell's metrics snapshot into the cell's declaration-order
// slot — registry merges are commutative, so which worker replays a cell,
// and when, is unobservable — and a miss runs the cell and appends it to the
// store the moment it completes, so an interrupted sweep loses at most the
// cells in flight. FAILED cells are never stored, so a resumed run
// recomputes them.

// Cell is one independent unit of an experiment grid: a closure returning
// the typed measurements of a single (cell, seed) entry. The scheduler
// passes in the Options the cell builds its simulators with (via
// Options.newSim); they carry the cell's private metrics registry, so
// the cell's instrumentation can be merged, stored and replayed on its own.
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
// encodes the (row, seed) coordinates), and why it died.
type Failure struct {
	Experiment string
	Cell       int
	Label      string
	// Reason is the first line of the panic value.
	Reason string
	// Stack is the goroutine stack of the panicking cell. It is kept out of
	// rendered output (stacks are not byte-stable) but available for
	// debugging.
	Stack string
	// cancelled marks a cell the run's own cancellation stopped: a
	// sim.Cancelled panic after the run context, which a cell sees under
	// HardCancel, fired. Run drops it — no FAILED marker, no timing, no
	// checkpoint record — and raises a Cancelled panic once in-flight cells
	// have drained. A sim.Cancelled panic while the run context is live is
	// an ordinary failure.
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
	return fmt.Sprintf("FAILED(%s cell %d [%s]): %s", exp, f.Cell, label, f.Reason)
}

// RunReport collects the failures and cell timings of self-healing grid
// runs. One report may span several experiments (cmd/experiments shares one
// across the whole suite); it is safe for concurrent use by grid workers.
type RunReport struct {
	mu       sync.Mutex
	failures []Failure
	timings  []metrics.CellTiming
}

// NewRunReport returns an empty report.
func NewRunReport() *RunReport { return &RunReport{} }

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

func (r *RunReport) addTiming(ct metrics.CellTiming) {
	r.mu.Lock()
	r.timings = append(r.timings, ct)
	r.mu.Unlock()
}

// Timings returns the per-cell cost records of every grid cell run under
// this report, sorted by (experiment, cell index) so manifests are
// deterministic regardless of worker scheduling; like Failures the sort is
// stable so duplicate identities cannot reorder across runs. Wall-clock
// fields are machine-dependent; everything else (identity, failed) is not.
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

// cellSchema is the schema string of a grid run's checkpoint records: with
// the experiment id and each cell's label it forms the content address of
// every record the run reads or writes. It captures everything else that
// determines a cell's value or its stored instrumentation: the structural
// shape of T (stale shapes must miss, not mis-decode), Quick (which
// rescales every cell), and whether metrics are being collected (which
// changes what a record's snapshot must replay).
func cellSchema[T any](o Options) string {
	return fmt.Sprintf("v1|quick=%t|metrics=%t|%s",
		o.Quick, o.Metrics != nil,
		checkpoint.SchemaOf(reflect.TypeOf((*T)(nil)).Elem()))
}

// call runs cell i once against co on the calling worker goroutine, storing
// its result into out. A panic becomes the cell's Failure and leaves the
// zero T; a sim.Cancelled panic after co.Context fired is the run's
// cancellation reaching the cell and is marked cancelled (see Failure).
func (g *Grid[T]) call(i int, co Options, out []T) (fail *Failure) {
	defer func() {
		if p := recover(); p != nil {
			_, cancelled := p.(sim.Cancelled)
			fail = &Failure{
				Reason:    firstLine(p),
				Stack:     string(debug.Stack()),
				cancelled: cancelled && co.stopped(),
			}
		}
	}()
	out[i] = g.cells[i](co)
	return nil
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

// runCell evaluates cell i once, storing the result into out on success. It
// returns the attributed failure, nil on success. Under a checkpoint store a
// labelled cell is first served from the store when it holds the cell's
// record, and a successfully computed one is appended to it together with
// its metrics snapshot.
//
// The cell records into a fresh registry merged into the shared one only on
// success, so a failed cell's partial instrumentation never leaks into the
// run totals or the store. Under HardCancel it sees the run context, so a
// run-level cancellation stops its simulation at the next tick and returns
// a cancelled failure that Run translates into a Cancelled panic rather
// than a FAILED record.
func (g *Grid[T]) runCell(i int, o Options, schema string, out []T) *Failure {
	stored := o.Checkpoint != nil && g.labels[i] != ""
	if stored {
		// The grid's only store read. A committed record — already in the
		// store, or committed by another goroutine (typically another job
		// sharing the daemon's store) that was computing this exact cell
		// while we waited — is replayed. Otherwise this goroutine leads the
		// flight: it computes below and resolves the flight on every exit
		// path (deferred, so a panicking cell still releases its waiters); a
		// leader that fails or is cancelled commits nothing, which promotes
		// one waiter to recompute. A waiter whose run context fires during
		// the wait falls through and computes on its own.
		key := checkpoint.KeyOf(o.Name, g.labels[i], schema)
		rec, leader := o.Checkpoint.JoinFlight(o.Context, key)
		if !leader && rec != nil && g.replayCell(i, o, rec, out) {
			return nil
		}
		if leader {
			defer o.Checkpoint.LeaveFlight(key)
		}
	}
	start := time.Now()
	var alloc0 int64
	co := o
	if o.Metrics != nil {
		alloc0 = heapAllocBytes()
		co.Metrics = metrics.NewRegistry()
	}
	if !o.HardCancel {
		co.Context = nil
	}
	f := g.call(i, co, out)
	switch {
	case f == nil:
		if o.Metrics != nil {
			o.Metrics.MergeSnapshot(co.Metrics.Snapshot())
		}
	case f.cancelled:
		// A run-cancelled cell neither completed nor failed: it leaves no
		// timing record, no FAILED marker and no checkpoint entry, and is
		// recomputed by the resumed run.
		return f
	default:
		f.Experiment, f.Cell, f.Label = o.Name, i, g.labels[i]
	}
	wall := time.Since(start)
	var allocs int64
	if o.Metrics != nil {
		allocs = heapAllocBytes() - alloc0
	}
	g.account(i, o, metrics.CellTiming{
		Failed:     f != nil,
		WallNs:     int64(wall),
		AllocBytes: allocs,
	})
	if f == nil && stored {
		g.storeCell(i, o, schema, co.Metrics, out)
	}
	return f
}

// account emits the bookkeeping of a completed cell i — the "grid/cells"
// counter and the "grid/cell" timer when a registry is attached, and ct,
// under the cell's identity, in the report. Computed and replayed cells
// both go through it, so a resumed run's manifest matches an uninterrupted
// one byte for byte (modulo the timing fields ZeroTimings clears).
func (g *Grid[T]) account(i int, o Options, ct metrics.CellTiming) {
	if o.Metrics != nil {
		o.Metrics.Counter("grid/cells").Inc()
		o.Metrics.Timer("grid/cell").Observe(time.Duration(ct.WallNs), ct.AllocBytes)
	}
	ct.Experiment, ct.Cell, ct.Label = o.Name, i, g.labels[i]
	o.Report.addTiming(ct)
}

// storeCell appends cell i's freshly computed result to the checkpoint
// store. Storage failures are counted in the store's session stats and
// otherwise ignored: the run already holds the correct value, the cell is
// simply not cached.
func (g *Grid[T]) storeCell(i int, o Options, schema string, cellReg *metrics.Registry, out []T) {
	value, err := checkpoint.EncodeValue(&out[i])
	if err != nil {
		o.Checkpoint.NoteError()
		return
	}
	var snap []byte
	if cellReg != nil {
		// Timing fields are zeroed so the stored bytes — and therefore the
		// store's content hash — are a pure function of the cell's
		// coordinates.
		snap, err = json.Marshal(cellReg.Snapshot().ZeroTimings())
		if err != nil {
			o.Checkpoint.NoteError()
			return
		}
	}
	// Put's error path already counted the failure; nothing else to do.
	_ = o.Checkpoint.Put(checkpoint.Record{
		Experiment: o.Name,
		Label:      g.labels[i],
		Schema:     schema,
		Value:      value,
		Metrics:    snap,
	})
}

// replayCell serves cell i from its checkpoint record: the stored value
// lands in the cell's declaration-order slot, the stored metrics snapshot
// merges into the run registry, and the cell is accounted exactly as a live
// run would account it. A decode failure reports false and the cell runs
// fresh.
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
	g.account(i, o, metrics.CellTiming{})
	return true
}

// Run evaluates every cell and returns the results in declaration order.
// One dispatch loop hands the cells, in declaration order, to a pool of
// min(o.workers(), cells) worker goroutines — one worker is simply a pool
// of one.
//
// Failed cells leave the zero T in their slot and are recorded in
// o.Report (see the file comment). Without a Report, Run records them in a
// private one and, once every cell has run, panics with the lowest failing
// cell index and the original message, so even failures are deterministic.
//
// With o.Checkpoint set, the worker that takes a labelled cell replays it
// when the store holds its record (see the file comment) and otherwise
// computes it and appends the result as it completes; the merged output is
// byte-identical either way.
func (g *Grid[T]) Run(o Options) []T {
	out := make([]T, len(g.cells))
	workers := min(o.workers(), len(g.cells))
	private := o.Report == nil
	if private {
		o.Report = NewRunReport()
	}
	schema := cellSchema[T](o)

	// notify serialises Progress callbacks across workers and keeps the
	// done/failed tallies (also the Done payload of a Cancelled panic); the
	// callback itself never runs concurrently.
	var progMu sync.Mutex
	done, failed := 0, 0
	notify := func(failedCell bool) {
		progMu.Lock()
		done++
		if failedCell {
			failed++
		}
		if o.Progress != nil {
			o.Progress(Progress{Experiment: o.Name, Done: done, Total: len(g.cells), Failed: failed})
		}
		progMu.Unlock()
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if o.stopped() {
					// The rest of the grid drains unstarted.
					continue
				}
				f := g.runCell(i, o, schema, out)
				if f != nil && f.cancelled {
					// Run-level cancellation: this cell simply produced
					// nothing.
					continue
				}
				notify(f != nil)
				if f != nil {
					o.Report.add(*f)
				}
			}
		}()
	}
	for i := range g.cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if private {
		if fails := o.Report.Failures(); len(fails) > 0 {
			f := fails[0]
			panic(fmt.Sprintf("experiment: grid cell %d: %s\n%s", f.Cell, f.Reason, f.Stack))
		}
	}
	// A context that fired only after every cell completed interrupts
	// nothing: the run is whole, return it.
	if o.stopped() && done < len(g.cells) {
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
