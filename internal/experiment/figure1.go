package experiment

import (
	"fmt"
	"math"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/trace"
)

// Figure1Contention instruments Proposition 3.1: running plain Try&Adjust
// from two adversarial starting configurations — every node at p = 1/2
// (maximal overload) and every node at p = 1/(2n) (cold start) — the maximum
// vicinity contention max_v P^ρ(v) converges to a constant band within
// O(log n) rounds and stays there.
func Figure1Contention(o Options) fmt.Stringer {
	n := 1024
	rounds := 160
	if o.Quick {
		n, rounds = 128, 60
	}
	phy := udwn.DefaultPHY()
	delta := 16
	rho := 2.0 // vicinity radius multiplier for the instrumented contention

	plot := trace.NewPlot(
		fmt.Sprintf("Figure 1: max vicinity contention over rounds (n=%d, Δ≈%d, ρ=%.0f, %d seeds)",
			n, delta, rho, o.seeds()),
		"round")
	hot := plot.NewSeries("start p=1/2")
	cold := plot.NewSeries("start p=1/(2n)")

	sample := func(s *sim.Sim) float64 {
		maxC := 0.0
		// Sampling a spread of nodes keeps instrumentation O(n) per round.
		for v := 0; v < s.N(); v += 8 {
			if c := s.Contention(v, rho*phy.Range); c > maxC {
				maxC = c
			}
		}
		return maxC
	}

	// Rows are the two starting configurations; each cell traces one seed.
	starts := []float64{0.5, 1 / (2 * float64(n))}
	grid := runSeedGrid(o, len(starts), func(o Options, row, seed int) []float64 {
		p0 := starts[row]
		nw := uniformNetwork(n, delta, phy, uint64(1000+seed))
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewBalancer(core.NewTryAdjustSpontaneous(p0))
		}, udwn.SimOptions{Seed: uint64(seed + 1), Primitives: sim.CD})
		samples := make([]float64, rounds)
		for r := 0; r < rounds; r++ {
			s.Step()
			samples[r] = sample(s)
		}
		return samples
	})

	merge := func(row int, out *trace.Series) {
		for r := 0; r < rounds; r++ {
			perSeed := make([]float64, 0, len(grid[row]))
			for _, samples := range grid[row] {
				perSeed = append(perSeed, samples[r])
			}
			out.Add(float64(r+1), stats.Mean(perSeed))
		}
	}
	merge(0, hot)
	merge(1, cold)

	logN := math.Log2(float64(n))
	plot.AddNote("log2(n) = %.1f; Prop. 3.1 predicts convergence to a constant band within O(log n) rounds", logN)
	plot.AddNote("hot start at 2·log n rounds: %.2f; at end: %.2f", hot.YAt(2*logN), hot.YAt(float64(rounds)))
	plot.AddNote("cold start at 2·log n rounds: %.2f; at end: %.2f", cold.YAt(2*logN), cold.YAt(float64(rounds)))
	return plot
}
