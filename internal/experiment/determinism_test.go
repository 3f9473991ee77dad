package experiment

import (
	"testing"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
)

// TestWorkersDeterminism is the contract of the parallel engine: every
// experiment renders byte-identical output whether its grid runs
// sequentially or on eight concurrent workers. A failure here means a cell
// reads state shared with another cell (or the merge order depends on
// completion order) — exactly the bug class the Grid design must exclude.
func TestWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism sweep skipped in -short mode")
	}
	serial := QuickOptions()
	serial.Workers = 1
	parallel := QuickOptions()
	parallel.Workers = 8
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			a := e.Run(serial).String()
			b := e.Run(parallel).String()
			if a != b {
				t.Fatalf("%s differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					e.ID, a, b)
			}
		})
	}
}

// TestParallelRace keeps concurrent cells exercised under the race detector
// even in -short mode: many small simulations constructed and stepped
// concurrently, then cross-checked against a sequential run of the same
// grid. Any shared mutable state in sim/rng/workload construction shows up
// here as a race report or a mismatch.
func TestParallelRace(t *testing.T) {
	const n, delta, rows = 48, 8, 2
	run := func(workers int) [][]float64 {
		return runSeedGrid(Options{Seeds: 8, Workers: workers}, rows,
			func(o Options, row, seed int) float64 {
				nw := uniformNetwork(n, delta, udwn.DefaultPHY(),
					uint64(100*row+seed))
				all, _, _ := localRun(o.newSim(nw, func(id int) sim.Protocol {
					return core.NewLocalBcast(n, int64(id))
				}, udwn.SimOptions{Seed: uint64(seed + 1),
					Primitives: sim.CD | sim.ACK}), n, 4000)
				return all
			})
	}
	seq := run(1)
	par := run(8)
	for r := range seq {
		for s := range seq[r] {
			if seq[r][s] != par[r][s] {
				t.Fatalf("cell (%d,%d): sequential %v != parallel %v",
					r, s, seq[r][s], par[r][s])
			}
		}
	}
}

// silentProto never transmits, so no node ever mass-delivers.
type silentProto struct{}

func (silentProto) Act(*sim.Node, int) sim.Action            { return sim.Action{} }
func (silentProto) Observe(*sim.Node, int, *sim.Observation) {}

// TestLocalRunTimeout covers the zero-completions sentinel: when no node
// finishes by maxTicks, localRun must report done=false with the tick cap as
// the pessimistic placeholder for both aggregates — not a fake mean.
func TestLocalRunTimeout(t *testing.T) {
	const n, maxTicks = 16, 50
	nw := uniformNetwork(n, 4, udwn.DefaultPHY(), 1)
	all, mean, done := localRun(Options{}.newSim(nw, func(int) sim.Protocol {
		return silentProto{}
	}, udwn.SimOptions{Seed: 1, Primitives: sim.CD | sim.ACK}), n, maxTicks)
	if done {
		t.Fatal("run with zero completions must not report done")
	}
	if all != maxTicks || mean != maxTicks {
		t.Fatalf("timeout sentinels: all=%v mean=%v, want both %d", all, mean, maxTicks)
	}
}
