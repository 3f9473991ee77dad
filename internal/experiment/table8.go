package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/workload"
)

// Table8Fading stresses the algorithms under per-slot Rayleigh fading — the
// adversarial edge dynamics the unified model admits, where every slot's
// effective communication graph differs. Atomic per-slot mass delivery
// becomes improbable at realistic degrees (all neighbours must up-fade at
// once), so the dissemination metric is cumulative coverage: the tick by
// which every neighbour has received the node's message at least once.
func Table8Fading(o Options) fmt.Stringer {
	n := 512
	if o.Quick {
		n = 128
	}
	delta := 16
	phy := udwn.DefaultPHY()
	rb := (1 - phy.Eps) * phy.Range
	side := workload.SideForDegree(n, delta, rb)
	maxTicks := 20000
	if o.Quick {
		maxTicks = 8000
	}

	t := stats.NewTable(
		fmt.Sprintf("Table 8: LocalBcast under per-slot Rayleigh fading (n=%d, Δ≈%d, %d seeds)", n, delta, o.seeds()),
		"channel", "covered nodes", "mean coverage tick", "p95 coverage tick", "atomic deliveries")

	type channel struct {
		name string
		mk   func(ts uint64) *udwn.Network
	}
	channels := []channel{
		{"deterministic SINR", func(ts uint64) *udwn.Network {
			return udwn.NewSINRNetwork(workload.UniformDisc(n, side, ts), phy)
		}},
		{"rayleigh fading", func(ts uint64) *udwn.Network {
			return udwn.NewRayleighNetwork(workload.UniformDisc(n, side, ts), phy, ts^0xfade)
		}},
	}

	type result struct {
		Cov    []float64 // coverage ticks of covered nodes, node order
		Total  int
		Atomic float64
	}
	grid := runSeedGrid(o, len(channels), func(o Options, row, seed int) result {
		s := coverageSim(channels[row].mk(uint64(12000+seed)), n, uint64(seed+1), o)
		s.RunUntil(func(s *sim.Sim) bool {
			return every(n, func(v int) bool { return s.FirstFullCoverage(v) >= 0 })
		}, maxTicks)
		r := result{Total: n, Atomic: float64(s.TotalMassDeliveries())}
		for v := 0; v < n; v++ {
			if tk := s.FirstFullCoverage(v); tk >= 0 {
				r.Cov = append(r.Cov, float64(tk))
			}
		}
		return r
	})

	for row, ch := range channels {
		var cov []float64
		var atomic []float64
		covered, total := 0, 0
		for _, r := range grid[row] {
			cov = append(cov, r.Cov...)
			covered += len(r.Cov)
			total += r.Total
			atomic = append(atomic, r.Atomic)
		}
		sum := stats.Summarize(cov)
		t.AddRowf(ch.name, fmt.Sprintf("%d/%d", covered, total), sum.Mean, sum.P95,
			stats.Mean(atomic))
	}
	t.AddNote("coverage = every neighbour received the message at least once (cumulative); atomic deliveries = single-slot mass deliveries")
	t.AddNote("expected shape: fading slows cumulative coverage by a moderate factor (down-fades must be retried) and collapses atomic single-slot deliveries; the contention balancing itself keeps working")
	return t
}

// coverageSim builds the LocalBcast simulator with coverage tracking enabled.
func coverageSim(nw *udwn.Network, n int, seed uint64, o Options) *sim.Sim {
	return o.newSim(nw, func(id int) sim.Protocol {
		return core.NewLocalBcast(n, int64(id))
	}, udwn.SimOptions{Seed: seed, Primitives: sim.CD | sim.ACK, TrackCoverage: true})
}
