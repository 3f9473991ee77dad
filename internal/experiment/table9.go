package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table9MultiMessage extends broadcast to k messages from k spread-out
// sources (the multiple-message broadcast problem of the related work).
// MultiBcast pipelines messages through disjoint regions, so completion
// should grow sub-linearly in k at fixed network size until the channel
// saturates, and the per-message cost (rounds/k) should fall.
func Table9MultiMessage(o Options) fmt.Stringer {
	n := 400
	length := 400.0
	ks := []int{1, 2, 4, 8}
	if o.Quick {
		n, length = 120, 120
		ks = []int{1, 2}
	}
	phy := udwn.DefaultPHY()
	rb := (1 - phy.Eps) * phy.Range

	t := stats.NewTable(
		fmt.Sprintf("Table 9: k-message broadcast on a strip (n=%d, %d seeds)", n, o.seeds()),
		"k", "rounds", "rounds/k", "rounds vs k=1")

	grid := runSeedGrid(o, len(ks), func(o Options, row, seed int) float64 {
		k := ks[row]
		pts, _ := connectedStrip(n, length, rb, uint64(14000+31*k+seed))
		nw := udwn.NewSINRNetwork(pts, phy)
		ntd := nw.NTDThreshold(phy.Eps / 2)
		// Sources spread evenly along the strip by index.
		isSource := make(map[int]int64, k)
		for i := 0; i < k; i++ {
			isSource[i*n/k] = int64(1000 + i)
		}
		s := o.newSim(nw, func(id int) sim.Protocol {
			if msg, ok := isSource[id]; ok {
				return core.NewMultiBcast(n, ntd, msg)
			}
			return core.NewMultiBcast(n, ntd)
		}, udwn.SimOptions{Seed: uint64(seed + 1), Slots: 2,
			SenseEps: phy.Eps / 2, Primitives: sim.CD | sim.ACK | sim.NTD})
		ticks, _ := s.RunUntil(func(s *sim.Sim) bool {
			return every(n, func(v int) bool { return s.Protocol(v).(*core.MultiBcast).Known() >= k })
		}, 800000)
		return float64(ticks) / 2
	})

	var base float64
	for row, k := range ks {
		m := stats.Mean(grid[row])
		if k == ks[0] {
			base = m
		}
		t.AddRowf(k, m, fmt.Sprintf("%.1f", m/float64(k)),
			fmt.Sprintf("%.2fx", m/base))
	}
	t.AddNote("k sources spread along the strip; completion = every node knows all k messages")
	t.AddNote("expected shape: rounds/k stays ≈ flat — messages pipeline through disjoint regions, so the total grows ≈ linearly in k instead of super-linearly under contention collapse")
	return t
}
