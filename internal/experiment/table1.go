package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/baseline"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table1LocalDelta sweeps the maximum degree at fixed n and compares
// LocalBcast (Cor. 4.3: O(Δ + log n)) against the Decay protocol
// (O(Δ·log n)) and the fixed-probability strategy with known Δ. The
// Decay/LocalBcast ratio should grow like log n with Δ; the ratio of
// LocalBcast to Δ should approach a constant.
func Table1LocalDelta(o Options) fmt.Stringer {
	n := 1024
	deltas := []int{8, 16, 32, 64, 128}
	if o.Quick {
		n = 192
		deltas = []int{8, 16}
	}
	phy := udwn.DefaultPHY()

	t := stats.NewTable(
		fmt.Sprintf("Table 1: local broadcast completion (ticks until every node mass-delivered), n=%d, %d seeds", n, o.seeds()),
		"Δ", "LocalBcast", "Decay", "FixedProb(Δ)", "Decay/LB", "LB/Δ")

	type cell struct{ LB, Dec, Fix float64 }
	grid := runSeedGrid(o, len(deltas), func(o Options, row, seed int) cell {
		delta := deltas[row]
		maxTicks := 400*delta + 200*n // generous cap; Decay needs Θ(Δ log n)
		nw := uniformNetwork(n, delta, phy, uint64(100*delta+seed))
		runSeed := uint64(seed + 1)

		var c cell
		c.LB, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.CD | sim.ACK}), n, maxTicks)

		c.Dec, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return baseline.NewDecay(n, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.FreeAck}), n, maxTicks)

		c.Fix, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return baseline.NewFixedProb(delta, 1, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.FreeAck}), n, maxTicks)
		return c
	})

	for row, delta := range deltas {
		var lb, dec, fix []float64
		for _, c := range grid[row] {
			lb = append(lb, c.LB)
			dec = append(dec, c.Dec)
			fix = append(fix, c.Fix)
		}
		mlb, mdec, mfix := stats.Mean(lb), stats.Mean(dec), stats.Mean(fix)
		t.AddRowf(delta, mlb, mdec, mfix,
			fmt.Sprintf("%.2f", mdec/mlb), fmt.Sprintf("%.2f", mlb/float64(delta)))
	}
	t.AddNote("LocalBcast uses CD+ACK carrier sensing; baselines get free (ground-truth) acknowledgements")
	t.AddNote("expected shape: LocalBcast ≈ c₁Δ + c₂log n; Decay ≈ c·Δ·log n; ratio grows with Δ toward Θ(log n)")
	return t
}
