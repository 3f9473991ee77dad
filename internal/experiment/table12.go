package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/faults"
	"udwn/internal/sim"
	"udwn/internal/stats"
)

// Table12Faults measures graceful degradation beyond the paper's fault
// model. Theorems 4.1 and 5.1 prove LocalBcast/Bcast robust against the
// polite adversary — unlimited churn, rate-limited edge dynamics — which
// Table 4 and Table 11 exercise. Here the adversary is the harsher one of
// the contention-management literature: crash/restart schedules,
// stuck-transmitter jammers, deaf receivers, sensing corruption, message
// drops and clock stalls from internal/faults. No theorem covers these, so
// the claim under test is the engineering one the production harness
// needs: coverage of healthy nodes degrades smoothly with the fault rate,
// and no single fault class collapses the run.
//
// Coverage counts only healthy nodes — not jammed or deaf ones, which by
// construction can never correctly participate; their interference and the
// retry pressure they exert on healthy neighbours is exactly the load being
// measured. Every cell is a pure function of (topology seed, run seed,
// fault seed), so the table is byte-identical across worker counts.
func Table12Faults(o Options) fmt.Stringer {
	n := 256
	if o.Quick {
		n = 96
	}
	delta := 16
	phy := udwn.DefaultPHY()
	maxTicks := 6000
	if o.Quick {
		maxTicks = 2500
	}

	scenarios := []struct {
		name string
		spec faults.Spec
	}{
		{"no faults", faults.Spec{}},
		{"crash 0.2%/t down 100", faults.Spec{CrashRate: 0.002, CrashDowntime: 100}},
		{"crash 1%/t down 100", faults.Spec{CrashRate: 0.01, CrashDowntime: 100}},
		{"jam 2% stuck-tx", faults.Spec{JamFraction: 0.02}},
		{"jam 10% stuck-tx", faults.Spec{JamFraction: 0.10}},
		{"deaf 10%", faults.Spec{DeafFraction: 0.10}},
		{"drop 20%", faults.Spec{DropRate: 0.20}},
		{"sense flip 10%", faults.Spec{SenseRate: 0.10}},
		{"stall 0.5%/t len 100", faults.Spec{StallRate: 0.005, StallLen: 100}},
		{"combined moderate", faults.Spec{CrashRate: 0.002, CrashDowntime: 100,
			JamFraction: 0.02, DropRate: 0.10, SenseRate: 0.05}},
	}

	type result struct {
		LocalCov, LocalTicks float64
		BcastCov, BcastTicks float64
		Events               float64
	}
	grid := runSeedGrid(o, len(scenarios), func(o Options, row, seed int) result {
		base := scenarios[row].spec
		var r result

		// Local broadcast: every healthy node must mass-deliver to its
		// alive neighbourhood.
		{
			spec := base
			spec.Seed = uint64(12100 + 131*row + seed)
			eng := faults.New(spec)
			nw := uniformNetwork(n, delta, phy, uint64(21000+seed))
			s := o.newSim(nw, func(id int) sim.Protocol {
				return core.NewLocalBcast(n, int64(id))
			}, udwn.SimOptions{Seed: uint64(seed + 1),
				Primitives: sim.CD | sim.ACK, Injector: eng})
			healthy := healthyNodes(eng, n)
			ticks, _ := s.RunUntil(func(s *sim.Sim) bool {
				return every(len(healthy), func(i int) bool { return s.FirstMassDelivery(healthy[i]) >= 0 })
			}, maxTicks)
			r.LocalCov = doneFraction(healthy, s.FirstMassDelivery)
			r.LocalTicks = float64(ticks)
			r.Events = float64(eng.Counters().Total())
		}

		// Global broadcast from a protected source: every healthy node
		// must be informed.
		{
			spec := base
			spec.Seed = uint64(12800 + 131*row + seed)
			spec.Protect = []int{0}
			eng := faults.New(spec)
			nw := uniformNetwork(n, delta, phy, uint64(22000+seed))
			s := o.newSim(nw, func(id int) sim.Protocol {
				return core.NewBcast(n, 3, 42, id == 0)
			}, udwn.SimOptions{Seed: uint64(seed + 1), Slots: 2,
				SenseEps: phy.Eps / 2, Primitives: sim.CD | sim.ACK | sim.NTD,
				Injector: eng})
			s.MarkInformed(0)
			healthy := healthyNodes(eng, n)
			ticks, _ := s.RunUntil(func(s *sim.Sim) bool {
				return every(len(healthy), func(i int) bool { return s.FirstDecode(healthy[i]) >= 0 })
			}, maxTicks)
			r.BcastCov = doneFraction(healthy, s.FirstDecode)
			r.BcastTicks = float64(ticks)
			r.Events += float64(eng.Counters().Total())
		}
		return r
	})

	t := stats.NewTable(
		fmt.Sprintf("Table 12: graceful degradation under injected faults (n=%d, Δ≈%d, %d seeds, cap %d ticks)",
			n, delta, o.seeds(), maxTicks),
		"fault scenario", "local cov", "local ticks", "bcast cov", "bcast ticks", "fault events")
	for row, sc := range scenarios {
		var lc, lt, bc, bt, ev []float64
		for _, r := range grid[row] {
			lc = append(lc, r.LocalCov)
			lt = append(lt, r.LocalTicks)
			bc = append(bc, r.BcastCov)
			bt = append(bt, r.BcastTicks)
			ev = append(ev, r.Events)
		}
		t.AddRowf(sc.name,
			fmt.Sprintf("%.3f", stats.Mean(lc)), fmt.Sprintf("%.0f", stats.Mean(lt)),
			fmt.Sprintf("%.3f", stats.Mean(bc)), fmt.Sprintf("%.0f", stats.Mean(bt)),
			fmt.Sprintf("%.0f", stats.Mean(ev)))
	}
	t.AddNote("coverage = fraction of healthy (non-jammed, non-deaf) nodes completed by the cap; ticks = run length (cap when incomplete)")
	t.AddNote("expected shape: crashes and stalls cost time, not coverage (the paper's churn tolerance extends to them); drops and sensing corruption degrade smoothly; stuck transmitters open interference dead zones that defeat atomic delivery near them, and deaf receivers block their own neighbourhoods — global dissemination routes around both")
	return t
}

// healthyNodes lists the nodes the fault engine has not made permanently
// faulty (jammed or deaf) — the completion targets of Table 12.
func healthyNodes(eng *faults.Engine, n int) []int {
	out := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !eng.Faulty(v) {
			out = append(out, v)
		}
	}
	return out
}

// doneFraction returns the fraction of listed nodes with first(v) >= 0.
func doneFraction(nodes []int, first func(int) int) float64 {
	if len(nodes) == 0 {
		return 0
	}
	done := 0
	for _, v := range nodes {
		if first(v) >= 0 {
			done++
		}
	}
	return float64(done) / float64(len(nodes))
}
