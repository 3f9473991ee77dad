package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/trace"
	"udwn/internal/workload"
)

// Figure2LowerBound measures broadcast on the Theorem 5.3 instance (Fig. 1a
// of the paper): n−2 mutually close cluster nodes, a bridge node that is the
// sink's only in-neighbour, and the sink. Without the NTD primitive the
// cluster nodes cannot learn that their neighbourhood is covered, so they
// keep contending and the bridge's solo-transmission chance stays Θ(1/n) —
// rounds to inform the sink grow linearly in n. With NTD, one cluster
// success suppresses the whole cluster and the bridge succeeds immediately.
func Figure2LowerBound(o Options) fmt.Stringer {
	sizes := []int{32, 64, 128, 256, 512}
	if o.Quick {
		sizes = []int{16, 32}
	}
	phy := udwn.DefaultPHY()

	plot := trace.NewPlot(
		fmt.Sprintf("Figure 2: rounds to inform the sink on the Thm. 5.3 instance (%d seeds)", o.seeds()),
		"n")
	with := plot.NewSeries("Bcast* with NTD")
	without := plot.NewSeries("Bcast* without NTD")
	pc := plot.NewSeries("power-control (no NTD)")

	// Rows are the flattened (n, mode) pairs, n-major, in plot-fill order.
	modes := []string{"ntd", "none", "pc"}
	grid := runSeedGrid(o, len(sizes)*len(modes), func(o Options, row, seed int) float64 {
		n := sizes[row/len(modes)]
		mode := modes[row%len(modes)]
		prims := sim.CD | sim.ACK
		if mode == "ntd" {
			prims |= sim.NTD
		}
		// The App. B power-control substitute: low-power notifications with
		// decode range (ε/2)R/2 = εR/4 > εR/8 (the cluster spacing).
		notifyScale := core.NotifyScaleFor(phy.Eps/2, phy.Alpha)
		inst := workload.LowerBound(n, phy.Range, phy.Eps)
		nw := udwn.NewSINRSpace(inst.Space, phy)
		src := seed % (n - 2) // a cluster node holds the message
		s := o.newSim(nw, func(id int) sim.Protocol {
			if mode == "pc" {
				return core.NewBcastStarPC(n, 42, id == src, notifyScale)
			}
			return core.NewBcastStar(n, 42, id == src)
		}, udwn.SimOptions{Seed: uint64(seed + 1), Slots: 2,
			SenseEps: phy.Eps / 2, Primitives: prims})
		s.MarkInformed(src)
		ticks, _ := s.RunUntil(func(s *sim.Sim) bool {
			return s.FirstDecode(inst.Sink) >= 0
		}, 200*n+40000)
		return float64(ticks) / 2
	})

	for i, n := range sizes {
		with.Add(float64(n), stats.Mean(grid[i*len(modes)]))
		without.Add(float64(n), stats.Mean(grid[i*len(modes)+1]))
		pc.Add(float64(n), stats.Mean(grid[i*len(modes)+2]))
	}

	// Fit the growth of the no-NTD curve.
	if len(sizes) >= 2 {
		slope, _ := stats.LinearFit(without.X, without.Y)
		plot.AddNote("no-NTD least-squares slope: %.2f rounds per node (Thm. 5.3 predicts Ω(n))", slope)
		slopeW, _ := stats.LinearFit(with.X, with.Y)
		plot.AddNote("with-NTD slope: %.3f rounds per node (near flat)", slopeW)
		slopePC, _ := stats.LinearFit(pc.X, pc.Y)
		plot.AddNote("power-control slope: %.3f — App. B: power control substitutes for the NTD primitive", slopePC)
	}
	return plot
}
