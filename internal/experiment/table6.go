package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table6Ablations isolates the design choices DESIGN.md calls out, running
// LocalBcast on the same workload under one change at a time:
//
//   - threshold calibration: the paper-exact CD threshold (BusyScale 1) and
//     paper-exact strict ACK (AckScale 1) versus the calibrated defaults;
//   - ACK machinery: threshold-sensed ACK versus free (ground-truth)
//     acknowledgements versus an optimistic adversary on ambiguous ACKs;
//   - clocking: synchronous versus locally-synchronous (factor-2 drift);
//   - CD necessity: disabling CD (the protocol then never adjusts, staying
//     at its arrival probability ≈ 1/2n).
func Table6Ablations(o Options) fmt.Stringer {
	n := 512
	if o.Quick {
		n = 128
	}
	delta := 32
	if o.Quick {
		delta = 16
	}
	maxTicks := 60000

	t := stats.NewTable(
		fmt.Sprintf("Table 6: LocalBcast ablations (n=%d, Δ≈%d, %d seeds)", n, delta, o.seeds()),
		"variant", "completion ticks", "mean node ticks", "all done")

	type variant struct {
		name     string
		phy      func(udwn.PHY) udwn.PHY
		opts     func(udwn.SimOptions) udwn.SimOptions
		maxTicks int
	}
	id := func(p udwn.PHY) udwn.PHY { return p }
	idOpts := func(s udwn.SimOptions) udwn.SimOptions { return s }
	variants := []variant{
		{"calibrated (default)", id, idOpts, 0},
		{"paper-exact CD (BusyScale=1)", func(p udwn.PHY) udwn.PHY { p.BusyScale = 1; return p }, idOpts, 0},
		{"strict ACK (AckScale=1)", func(p udwn.PHY) udwn.PHY { p.AckScale = 1; return p }, idOpts, 0},
		{"free ACK", id, func(s udwn.SimOptions) udwn.SimOptions {
			s.Primitives = sim.CD | sim.FreeAck
			return s
		}, 0},
		{"optimistic ACK adversary", id, func(s udwn.SimOptions) udwn.SimOptions {
			s.Adversary = sim.OptimisticAdversary{}
			return s
		}, 0},
		{"async clocks", id, func(s udwn.SimOptions) udwn.SimOptions {
			s.Async = true
			return s
		}, 0},
		{"no CD (runs open-loop)", id, func(s udwn.SimOptions) udwn.SimOptions {
			s.Primitives = sim.ACK
			return s
		}, 5000},
	}

	type result struct {
		All, Mean float64
		Done      bool
	}
	grid := runSeedGrid(o, len(variants), func(o Options, row, seed int) result {
		v := variants[row]
		tickCap := maxTicks
		if v.maxTicks > 0 {
			tickCap = v.maxTicks
		}
		phy := v.phy(udwn.DefaultPHY())
		nw := uniformNetwork(n, delta, phy, uint64(9000+seed))
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, v.opts(udwn.SimOptions{Seed: uint64(seed + 1), Primitives: sim.CD | sim.ACK}))
		all, mean, done := localRun(s, n, tickCap)
		return result{All: all, Mean: mean, Done: done}
	})

	for row, v := range variants {
		var alls, means []float64
		okAll := true
		for _, r := range grid[row] {
			alls = append(alls, r.All)
			means = append(means, r.Mean)
			okAll = okAll && r.Done
		}
		t.AddRowf(v.name, stats.Mean(alls), stats.Mean(means), fmt.Sprintf("%v", okAll))
	}
	t.AddNote("expected shape: calibrated thresholds beat paper-exact constants by a constant factor; free ACK is an upper bound on what sensing can deliver; without CD the channel reads Idle forever, every node doubles to p=1/2 and the network collapses into a perpetual collision storm — contention detection is what makes the backoff work")
	return t
}
