package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/dynamics"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/trace"
)

// Figure4Stabilisation measures the paper's fifth contribution directly:
// contention adaptation as a stabilisation mechanism. Every burstPeriod
// rounds an adversary replaces a fraction of the network with *hot* joiners
// that start at the maximum probability 1/2 (the worst insertion the
// unstructured-model adversary can make; the paper's own arrivals start
// passive at 1/(2n)). The max vicinity contention spikes at each burst and
// Try&Adjust pulls it back into the equilibrium band within O(log n)
// rounds — Prop. 3.1's "from any initial conditions, and in the presence of
// network changes".
func Figure4Stabilisation(o Options) fmt.Stringer {
	n := 1024
	rounds := 300
	burstPeriod := 75
	if o.Quick {
		n, rounds, burstPeriod = 128, 120, 40
	}
	delta := 16
	frac := 0.25
	phy := udwn.DefaultPHY()
	rho := 2.0

	plot := trace.NewPlot(
		fmt.Sprintf("Figure 4: contention re-stabilisation under hot joins (n=%d, %.0f%% replaced every %d rounds, %d seeds)",
			n, frac*100, burstPeriod, o.seeds()),
		"round")
	series := plot.NewSeries("max vicinity contention")

	// A single row of seed cells; each traces one full burst schedule.
	grid := runSeedGrid(o, 1, func(o Options, _, seed int) []float64 {
		nw := uniformNetwork(n, delta, phy, uint64(15000+seed))
		// Hot factory: every (re)join starts at p = 1/2.
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewBalancer(core.NewTryAdjustSpontaneous(0.5))
		}, udwn.SimOptions{Seed: uint64(seed + 1), Primitives: sim.CD})
		burst := dynamics.NewBurstChurn(burstPeriod, frac, uint64(16000+seed))
		samples := make([]float64, rounds)
		for r := 0; r < rounds; r++ {
			if r > 0 { // let the initial hot start settle as burst #0
				burst.Apply(s, r)
			}
			s.Step()
			maxC := 0.0
			for v := 0; v < s.N(); v += 8 {
				if !s.Alive(v) {
					continue
				}
				if c := s.Contention(v, rho*phy.Range); c > maxC {
					maxC = c
				}
			}
			samples[r] = maxC
		}
		return samples
	})
	for r := 0; r < rounds; r++ {
		perSeed := make([]float64, 0, len(grid[0]))
		for _, tr := range grid[0] {
			perSeed = append(perSeed, tr[r])
		}
		series.Add(float64(r+1), stats.Mean(perSeed))
	}

	// Quantify recovery: contention just after a burst vs midway between
	// bursts.
	// The first burst only removes nodes; hot revivals start with the
	// second, so measure spikes from there.
	var spikes, settled []float64
	for b := 2 * burstPeriod; b < rounds; b += burstPeriod {
		spikes = append(spikes, series.YAt(float64(b+2)))
		mid := b + burstPeriod/2
		if mid < rounds {
			settled = append(settled, series.YAt(float64(mid)))
		}
	}
	if len(spikes) > 0 && len(settled) > 0 {
		plot.AddNote("mean contention 2 rounds after a burst: %.1f; mid-interval: %.1f (recovery factor %.1fx)",
			stats.Mean(spikes), stats.Mean(settled), stats.Mean(spikes)/stats.Mean(settled))
	}
	plot.AddNote("expected shape: a spike at each hot-revival burst, decaying back to the equilibrium band (~2) within O(log n) ≈ %d rounds", 2*ilog2(n))
	return plot
}

func ilog2(n int) int {
	k := 0
	for n > 1 {
		n /= 2
		k++
	}
	return k
}
