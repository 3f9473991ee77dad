package experiment

import (
	"fmt"
	"math"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table2LocalN sweeps the network size at fixed degree. Corollary 4.3
// predicts completion in O(Δ + log n): with Δ fixed, time grows only
// logarithmically in n. The spontaneous variant is uniform — it does not
// know n at all — and must track the standard variant closely.
func Table2LocalN(o Options) fmt.Stringer {
	sizes := []int{128, 256, 512, 1024, 2048, 4096}
	if o.Quick {
		sizes = []int{128, 256}
	}
	delta := 16
	phy := udwn.DefaultPHY()

	t := stats.NewTable(
		fmt.Sprintf("Table 2: local broadcast completion vs n (ticks, Δ≈%d, %d seeds)", delta, o.seeds()),
		"n", "log2(n)", "LocalBcast", "Spontaneous(uniform)", "LB/log2(n)")

	type cell struct{ LB, SP float64 }
	grid := runSeedGrid(o, len(sizes), func(o Options, row, seed int) cell {
		n := sizes[row]
		maxTicks := 500*delta + 100*n
		nw := uniformNetwork(n, delta, phy, uint64(10*n+seed))
		runSeed := uint64(seed + 1)

		var c cell
		c.LB, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.CD | sim.ACK}), n, maxTicks)

		// The uniform variant starts at an arbitrary constant
		// probability with no floor and never consults n.
		c.SP, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcastSpontaneous(0.25, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.CD | sim.ACK}), n, maxTicks)
		return c
	})

	for row, n := range sizes {
		var lb, sp []float64
		for _, c := range grid[row] {
			lb = append(lb, c.LB)
			sp = append(sp, c.SP)
		}
		logN := math.Log2(float64(n))
		mlb := stats.Mean(lb)
		t.AddRowf(n, fmt.Sprintf("%.1f", logN), mlb, stats.Mean(sp),
			fmt.Sprintf("%.1f", mlb/logN))
	}
	t.AddNote("expected shape: with Δ fixed, completion grows ~logarithmically in n; the uniform variant needs no bound on n")
	return t
}
