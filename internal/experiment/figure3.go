package experiment

import (
	"fmt"
	"sort"

	"udwn"
	"udwn/internal/baseline"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/trace"
)

// Figure3CDF plots the per-node completion-time distribution of local
// broadcast: for each percentile, the tick by which that fraction of nodes
// had mass-delivered. The paper's strong optimality claim (LocalBcast is
// within constant factors on *every* instance) shows up as a short tail:
// the p99/p50 spread stays small, while Decay's multiplicative log n
// penalty stretches the whole curve upward.
func Figure3CDF(o Options) fmt.Stringer {
	n := 1024
	delta := 32
	if o.Quick {
		n, delta = 192, 16
	}
	phy := udwn.DefaultPHY()
	maxTicks := 600*delta + 200*n

	plot := trace.NewPlot(
		fmt.Sprintf("Figure 3: completion-time CDF (ticks by which a fraction of nodes mass-delivered; n=%d, Δ≈%d, %d seeds)",
			n, delta, o.seeds()),
		"percentile")
	lb := plot.NewSeries("LocalBcast")
	dec := plot.NewSeries("Decay")
	fix := plot.NewSeries("FixedProb")

	// Rows are the three protocols; each cell collects one seed's per-node
	// completion ticks.
	type proto struct {
		factory sim.ProtocolFactory
		opts    udwn.SimOptions
	}
	protos := []proto{
		{func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, udwn.SimOptions{Primitives: sim.CD | sim.ACK}},
		{func(id int) sim.Protocol {
			return baseline.NewDecay(n, int64(id))
		}, udwn.SimOptions{Primitives: sim.FreeAck}},
		{func(id int) sim.Protocol {
			return baseline.NewFixedProb(delta, 1, int64(id))
		}, udwn.SimOptions{Primitives: sim.FreeAck}},
	}
	grid := runSeedGrid(o, len(protos), func(o Options, row, seed int) []float64 {
		nw := uniformNetwork(n, delta, phy, uint64(13000+seed))
		opts := protos[row].opts
		opts.Seed = uint64(seed + 1)
		s := o.newSim(nw, protos[row].factory, opts)
		s.RunUntil(func(s *sim.Sim) bool {
			return every(n, func(v int) bool { return s.FirstMassDelivery(v) >= 0 })
		}, maxTicks)
		ticks := make([]float64, 0, n)
		for v := 0; v < n; v++ {
			if t := s.FirstMassDelivery(v); t >= 0 {
				ticks = append(ticks, float64(t))
			} else {
				ticks = append(ticks, float64(maxTicks))
			}
		}
		return ticks
	})

	merge := func(row int) []float64 {
		var ticks []float64
		for _, seedTicks := range grid[row] {
			ticks = append(ticks, seedTicks...)
		}
		sort.Float64s(ticks)
		return ticks
	}
	lbTicks, decTicks, fixTicks := merge(0), merge(1), merge(2)

	for _, p := range []float64{5, 10, 25, 50, 75, 90, 95, 99} {
		lb.Add(p, stats.Percentile(lbTicks, p))
		dec.Add(p, stats.Percentile(decTicks, p))
		fix.Add(p, stats.Percentile(fixTicks, p))
	}
	plot.AddNote("p99 vs LocalBcast: Decay %.1fx, FixedProb %.1fx",
		stats.Percentile(decTicks, 99)/stats.Percentile(lbTicks, 99),
		stats.Percentile(fixTicks, 99)/stats.Percentile(lbTicks, 99))
	plot.AddNote("tail spread p99/p50: LocalBcast %.1f, Decay %.1f, FixedProb %.1f",
		ratio(lbTicks, 99, 50), ratio(decTicks, 99, 50), ratio(fixTicks, 99, 50))
	plot.AddNote("expected shape: LocalBcast's curve sits lowest at every percentile; the baselines' multiplicative penalty lifts their whole curve")
	return plot
}

func ratio(sorted []float64, hi, lo float64) float64 {
	l := stats.Percentile(sorted, lo)
	if l == 0 {
		return 0
	}
	return stats.Percentile(sorted, hi) / l
}
