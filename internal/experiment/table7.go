package experiment

import (
	"fmt"
	"math"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table7NoCS quantifies the price of carrier sensing claimed in Appendix B:
// implementing the CD primitive "by other means" (probing epochs) costs a
// logarithmic factor. It runs the carrier-sense LocalBcast against
// NoCSLocalBcast, whose Try&Adjust round is stretched into an epoch of
// (⌈log₂ n⌉+1)·C probing slots, on the same workloads.
func Table7NoCS(o Options) fmt.Stringer {
	sizes := []int{128, 256, 512, 1024}
	if o.Quick {
		sizes = []int{64, 128}
	}
	delta := 12
	probes := 2
	phy := udwn.DefaultPHY()

	t := stats.NewTable(
		fmt.Sprintf("Table 7: the price of carrier sensing (LocalBcast vs probing CD, Δ≈%d, %d seeds)", delta, o.seeds()),
		"n", "epoch len", "LocalBcast(CD)", "NoCS(probing)", "NoCS/LB", "ratio/epoch")

	type cell struct{ LB, NoCS float64 }
	grid := runSeedGrid(o, len(sizes), func(o Options, row, seed int) cell {
		n := sizes[row]
		epoch := (int(math.Ceil(math.Log2(float64(n)))) + 1) * probes
		maxTicks := 3000 * epoch
		nw := uniformNetwork(n, delta, phy, uint64(11000+n+seed))
		runSeed := uint64(seed + 1)

		var c cell
		c.LB, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.CD | sim.ACK}), n, maxTicks)

		c.NoCS, _, _ = localRun(o.newSim(nw, func(id int) sim.Protocol {
			return core.NewNoCSLocalBcast(n, probes, int64(id))
		}, udwn.SimOptions{Seed: runSeed, Primitives: sim.FreeAck}), n, maxTicks)
		return c
	})

	for row, n := range sizes {
		epoch := (int(math.Ceil(math.Log2(float64(n)))) + 1) * probes
		var lb, nocs []float64
		for _, c := range grid[row] {
			lb = append(lb, c.LB)
			nocs = append(nocs, c.NoCS)
		}
		ml, mn := stats.Mean(lb), stats.Mean(nocs)
		t.AddRowf(n, epoch, ml, mn,
			fmt.Sprintf("%.1f", mn/ml), fmt.Sprintf("%.2f", mn/ml/float64(epoch)))
	}
	t.AddNote("the probing protocol gets free acknowledgements (it has no threshold-ACK), yet pays the epoch factor")
	t.AddNote("expected shape: NoCS/LB tracks the epoch length (the App. B logarithmic overhead); ratio/epoch stays ≈ constant")
	return t
}
