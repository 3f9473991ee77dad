package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table10MultiChannel measures the multi-channel direction of the related
// work with the *naive* extension of the paper's machinery: the same
// contention-balancing local broadcast over C orthogonal channels, every
// node tuning uniformly at random each round. The completion metric is
// cumulative coverage (atomic all-neighbour delivery is impossible while
// neighbours sit on other channels).
//
// This is a deliberate negative ablation: uniform random tuning pays a 1/C
// sender-receiver matching penalty that the capped transmission probability
// cannot buy back, and without atomic deliveries the ACK-stop rule never
// fires, so contention persists. The speed-ups reported in the multi-channel
// literature come from coordinated channel assignment — machinery beyond
// the unified CD/ACK/NTD primitives — and this table quantifies exactly how
// much that coordination is worth.
func Table10MultiChannel(o Options) fmt.Stringer {
	n := 512
	if o.Quick {
		n = 128
	}
	deltas := []int{16, 64}
	if o.Quick {
		deltas = []int{16}
	}
	channelCounts := []int{1, 2, 4}
	phy := udwn.DefaultPHY()
	maxTicks := 40000

	t := stats.NewTable(
		fmt.Sprintf("Table 10: multi-channel local broadcast (cumulative coverage, n=%d, %d seeds)", n, o.seeds()),
		"Δ", "channels", "all covered", "mean pair-coverage", "vs 1 channel")

	// Rows are the flattened (Δ, channels) pairs, delta-major.
	type result struct {
		Ticks   float64
		Mean    float64
		HasMean bool
	}
	rows := len(deltas) * len(channelCounts)
	grid := runSeedGrid(o, rows, func(o Options, row, seed int) result {
		delta := deltas[row/len(channelCounts)]
		ch := channelCounts[row%len(channelCounts)]
		nw := uniformNetwork(n, delta, phy, uint64(17000+100*delta+seed))
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewMCLocalBcast(n, ch, int64(id))
		}, udwn.SimOptions{Seed: uint64(seed + 1), Channels: ch,
			Primitives: sim.CD | sim.ACK, TrackCoverage: true})
		tk, _ := s.RunUntil(func(s *sim.Sim) bool {
			return every(n, func(v int) bool { return s.FirstFullCoverage(v) >= 0 })
		}, maxTicks)
		r := result{Ticks: float64(tk)}
		sum, cnt := 0.0, 0
		for v := 0; v < n; v++ {
			if c := s.FirstFullCoverage(v); c >= 0 {
				sum += float64(c)
				cnt++
			}
		}
		if cnt > 0 {
			r.Mean, r.HasMean = sum/float64(cnt), true
		}
		return r
	})

	for di, delta := range deltas {
		var base float64
		for ci, ch := range channelCounts {
			var ticks, means []float64
			for _, r := range grid[di*len(channelCounts)+ci] {
				ticks = append(ticks, r.Ticks)
				if r.HasMean {
					means = append(means, r.Mean)
				}
			}
			m := stats.Mean(ticks)
			if ch == 1 {
				base = m
			}
			t.AddRowf(delta, ch, m, stats.Mean(means), fmt.Sprintf("%.2fx", base/m))
		}
	}
	t.AddNote("vs 1 channel > 1x means speed-up; coverage = every neighbour received the message at least once")
	t.AddNote("expected shape: the naive extension LOSES at every density — the 1/C tuning-match penalty and the loss of ACK-stop dominate; multi-channel gains require coordinated assignment beyond the unified primitives")
	return t
}
