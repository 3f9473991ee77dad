// Package experiment implements the evaluation suite of DESIGN.md: one
// runner per table/figure, regenerating the rows and series whose shapes the
// paper's theorems predict. The same runners back cmd/experiments and the
// root bench_test.go.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"udwn"
	"udwn/internal/checkpoint"
	"udwn/internal/metrics"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	// Seeds is the number of independent repetitions per cell.
	Seeds int
	// Quick shrinks sizes for unit tests and smoke benches.
	Quick bool
	// Workers caps how many grid cells execute concurrently: the size of
	// the grid's worker pool. Zero defaults to runtime.NumCPU(); 1 is a pool
	// of one, which runs the cells one at a time in declaration order.
	// Results are byte-identical for every value — each cell is a pure
	// function of its seeds and the merge order is fixed (see grid.go).
	Workers int
	// CellTimeout is the per-cell deadline; a cell that overruns it is
	// cancelled (abandoned) and marked FAILED instead of hanging the run.
	// Zero disables deadlines. Deadline outcomes are machine-dependent, so
	// leave this zero for golden/recorded runs.
	CellTimeout time.Duration
	// Retries is the per-cell retry budget after a panic or timeout.
	Retries int
	// Report receives every failing cell with its (experiment, cell, seed)
	// identity, the failure counters and every cell's timing; the remaining
	// cells complete either way. With a nil Report the grid keeps a private
	// one and panics with the lowest failing cell once every cell has run.
	// Runs through All() always get one.
	Report *RunReport
	// Name attributes failures to an experiment id; set by the registry
	// wrapper, runners need not touch it.
	Name string
	// Metrics, when non-nil, is the run-level registry. The grid times
	// every cell into it ("grid/cell" timer, "grid/cells" counter) and
	// gives each cell attempt a private registry, which every simulator a
	// runner builds with o.newSim reports into and which merges here when
	// the attempt succeeds. All metric updates are commutative, so snapshots
	// (modulo timing fields) are byte-identical across Workers counts —
	// pinned by TestMetricsWorkersDeterminism.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives every simulator slot event of every
	// grid cell (o.newSim threads it alongside Metrics). Cells run on
	// concurrent worker goroutines, so callbacks may arrive interleaved and
	// concurrently; wrap trace recorders with trace.LockedObserver. Events
	// alias simulator scratch buffers and are only valid during the call.
	Observer func(ev sim.SlotEvent)
	// Progress, when non-nil, is invoked after every completed or failed
	// grid cell with the grid's live done/total state. Callbacks are
	// serialised by the grid, so implementations need no locking; they run
	// on worker goroutines and must be fast.
	Progress func(Progress)
	// Checkpoint, when non-nil, attaches a content-addressed cell-result
	// store: the grid reads it once for each labelled cell (hits replay the
	// stored value, metrics snapshot and attempt count instead of running
	// the cell) and appends every freshly computed cell as it completes.
	// Results and manifests are byte-identical with or without a store, and
	// across any interrupt/resume pattern — see grid.go and
	// internal/checkpoint. FAILED cells are never stored.
	Checkpoint *checkpoint.Store
	// Context, when non-nil, scopes the whole grid run: once it is
	// cancelled the scheduler stops dispatching new cells, lets (or, with
	// HardCancel, stops) the cells already in flight, and then panics with
	// a Cancelled sentinel carrying the done/total progress at the moment
	// of interruption. Completed cells keep their checkpoint records, so a
	// cancelled checkpointed run resumes with no recomputation of finished
	// work. Nil keeps the historical run-to-completion behaviour.
	Context context.Context
	// HardCancel additionally threads Context into every cell, so a
	// cancelled run stops in-flight simulations at their next tick instead
	// of letting them run to completion. Interrupted cells produce no
	// result and are not checkpointed; they rerun on resume. The daemon's
	// job deadlines and post-grace drain use this; cmd/experiments'
	// SIGINT path leaves it false so in-flight cells finish and commit.
	HardCancel bool
}

// Progress is one live progress update of a grid run.
type Progress struct {
	// Experiment is the running experiment's id ("" outside the registry).
	Experiment string
	// Done counts cells that finished (including failed ones); Total is the
	// grid size; Failed counts cells recorded as FAILED.
	Done, Total, Failed int
}

// newSim builds one of a cell's simulators over nw, threading the cell's
// metrics registry, observer and cancellation hook into so. A construction
// error is a runner bug and panics.
func (o Options) newSim(nw *udwn.Network, factory sim.ProtocolFactory, so udwn.SimOptions) *sim.Sim {
	so.Metrics = o.Metrics
	so.Observer = o.Observer
	if o.Context != nil {
		ctx := o.Context
		// One non-blocking poll per tick; the sim panics sim.Cancelled when
		// it fires and the grid's attempt recover maps that back to a
		// cancellation outcome, so the cell's goroutine really terminates.
		so.Cancel = func() bool {
			select {
			case <-ctx.Done():
				return true
			default:
				return false
			}
		}
	}
	s, err := nw.NewSim(factory, so)
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	return s
}

// DefaultOptions returns the settings used for the recorded EXPERIMENTS.md
// numbers.
func DefaultOptions() Options { return Options{Seeds: 5} }

// QuickOptions returns reduced settings for tests.
func QuickOptions() Options { return Options{Seeds: 2, Quick: true} }

func (o Options) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// Experiment is one table or figure runner.
type Experiment struct {
	// ID is the short identifier ("table1", "figure2", ...).
	ID string
	// Title is the human-readable description.
	Title string
	// Run executes the experiment and returns its printable result.
	Run func(o Options) fmt.Stringer
}

// All returns every experiment in report order. Every returned runner is
// self-healing: failures of individual grid cells are attributed and
// rendered as FAILED(...) markers instead of aborting the run (see
// withReport).
func All() []Experiment {
	list := []Experiment{
		{ID: "figure1", Title: "Try&Adjust contention convergence (Prop. 3.1)", Run: Figure1Contention},
		{ID: "table1", Title: "Local broadcast vs max degree (Cor. 4.3)", Run: Table1LocalDelta},
		{ID: "table2", Title: "Local broadcast vs network size (Cor. 4.3, uniformity)", Run: Table2LocalN},
		{ID: "table3", Title: "Global broadcast vs diameter (Cor. 5.2, Thm. G.1)", Run: Table3Broadcast},
		{ID: "table4", Title: "Local broadcast under dynamics (Thm. 4.1)", Run: Table4Dynamics},
		{ID: "table5", Title: "One algorithm across models (unified model)", Run: Table5CrossModel},
		{ID: "figure2", Title: "Broadcast without NTD on the Thm. 5.3 instance", Run: Figure2LowerBound},
		{ID: "table6", Title: "Ablations: thresholds, primitives, adversary, clocks", Run: Table6Ablations},
		{ID: "table7", Title: "The price of carrier sensing (App. B probing CD)", Run: Table7NoCS},
		{ID: "table8", Title: "Rayleigh fading: dynamic edges from the channel", Run: Table8Fading},
		{ID: "figure3", Title: "Per-node completion-time CDF (strong optimality)", Run: Figure3CDF},
		{ID: "table9", Title: "k-message broadcast (multi-message extension)", Run: Table9MultiMessage},
		{ID: "figure4", Title: "Contention re-stabilisation under adversarial hot joins", Run: Figure4Stabilisation},
		{ID: "table10", Title: "Multi-channel local broadcast (naive tuning, negative ablation)", Run: Table10MultiChannel},
		{ID: "table11", Title: "Dynamic broadcast vs stable distance (Thm. 5.1)", Run: Table11StableDistance},
		{ID: "table12", Title: "Graceful degradation under injected faults (jam, corruption, crashes)", Run: Table12Faults},
	}
	for i := range list {
		list[i].Run = withReport(list[i].ID, list[i].Run)
	}
	return list
}

// withReport wraps a runner so every run through the registry is
// self-healing: o.Name carries the experiment id for failure attribution, a
// RunReport is supplied when the caller did not pass one, and the rendered
// output gains one FAILED(...) line per degraded cell (nothing when clean).
func withReport(id string, run func(Options) fmt.Stringer) func(Options) fmt.Stringer {
	return func(o Options) fmt.Stringer {
		o.Name = id
		if o.Report == nil {
			o.Report = NewRunReport()
		}
		return reportedResult{res: run(o), id: id, report: o.Report}
	}
}

// reportedResult renders an experiment's own output plus the FAILED markers
// of its degraded cells.
type reportedResult struct {
	res    fmt.Stringer
	id     string
	report *RunReport
}

func (r reportedResult) String() string {
	return r.res.String() + r.report.render(r.id)
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// uniformNetwork builds a uniform SINR deployment of n nodes with expected
// degree delta.
func uniformNetwork(n, delta int, phy udwn.PHY, topoSeed uint64) *udwn.Network {
	rb := (1 - phy.Eps) * phy.Range
	side := workload.SideForDegree(n, delta, rb)
	return udwn.NewSINRNetwork(workload.UniformDisc(n, side, topoSeed), phy)
}

// localRun drives s until all n nodes mass-delivered or maxTicks elapsed;
// it returns the tick by which all completed (or maxTicks) and the mean
// per-node completion tick over completed nodes.
func localRun(s *sim.Sim, n, maxTicks int) (all float64, mean float64, done bool) {
	ticks, ok := s.RunUntil(func(s *sim.Sim) bool {
		return every(n, func(v int) bool { return s.FirstMassDelivery(v) >= 0 })
	}, maxTicks)
	sum, cnt := 0.0, 0
	for v := 0; v < n; v++ {
		if t := s.FirstMassDelivery(v); t >= 0 {
			sum += float64(t)
			cnt++
		}
	}
	if cnt == 0 {
		// No node completed: there is no mean to take. Report the cap as a
		// pessimistic sentinel and force done=false so callers cannot
		// mistake a total timeout for a (terrible) measured mean.
		return float64(ticks), float64(maxTicks), false
	}
	return float64(ticks), sum / float64(cnt), ok
}

// every reports whether ok(i) holds for every i in [0, n): the completion
// predicate of every runner ("every node informed", "every victim
// delivered"). Callers over a node list index into it.
func every(n int, ok func(i int) bool) bool {
	for i := 0; i < n; i++ {
		if !ok(i) {
			return false
		}
	}
	return true
}
