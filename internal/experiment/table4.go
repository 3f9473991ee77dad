package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/dynamics"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/workload"
)

// Table4Dynamics measures LocalBcast under the paper's dynamics: Theorem 4.1
// bounds a protected victim's completion time by its dynamic degree
// Δ^ρ_v(t,t') plus log n — churn may be unlimited, edge changes (mobility)
// must stay below the rate τ. We protect a set of victim nodes from churn,
// drive the rest of the network with each dynamics generator, and report the
// victims' completion times alongside their measured dynamic degrees.
func Table4Dynamics(o Options) fmt.Stringer {
	n := 512
	if o.Quick {
		n = 128
	}
	delta := 16
	phy := udwn.DefaultPHY()
	rho := 2.0
	maxTicks := 6000
	if o.Quick {
		maxTicks = 3000
	}
	victims := []int{0, n / 4, n / 2, 3 * n / 4}

	type scenario struct {
		name   string
		driver func(seed uint64, protect map[int]bool) dynamics.Driver
		mobile bool
	}
	protectSet := func() map[int]bool {
		m := make(map[int]bool, len(victims))
		for _, v := range victims {
			m[v] = true
		}
		return m
	}
	scenarios := []scenario{
		{name: "static", driver: func(uint64, map[int]bool) dynamics.Driver { return nil }},
		{name: "churn p=0.002", driver: func(seed uint64, protect map[int]bool) dynamics.Driver {
			c := dynamics.NewPoissonChurn(0.002, seed)
			c.Protect = protect
			return c
		}},
		{name: "churn p=0.01", driver: func(seed uint64, protect map[int]bool) dynamics.Driver {
			c := dynamics.NewPoissonChurn(0.01, seed)
			c.Protect = protect
			return c
		}},
		{name: "burst 20%/200t", driver: func(seed uint64, protect map[int]bool) dynamics.Driver {
			c := dynamics.NewBurstChurn(200, 0.2, seed)
			c.Protect = protect
			return c
		}},
		{name: "targeted churn", driver: func(seed uint64, protect map[int]bool) dynamics.Driver {
			var ds []dynamics.Driver
			for _, v := range victims {
				ds = append(ds, dynamics.NewTargetedChurn(v, rho*phy.Range, 0.01, seed+uint64(v)))
			}
			return dynamics.Compose(ds...)
		}},
		{name: "walk 0.02R/t", mobile: true, driver: func(seed uint64, _ map[int]bool) dynamics.Driver {
			return dynamics.NewRandomWalk(0.02*phy.Range, 0, seed) // Side set below
		}},
		{name: "walk 0.1R/t", mobile: true, driver: func(seed uint64, _ map[int]bool) dynamics.Driver {
			return dynamics.NewRandomWalk(0.1*phy.Range, 0, seed)
		}},
	}

	t := stats.NewTable(
		fmt.Sprintf("Table 4: LocalBcast under dynamics (n=%d, Δ≈%d, %d seeds, %d victims)", n, delta, o.seeds(), len(victims)),
		"scenario", "victims done", "mean ticks", "p95 ticks", "mean dyn degree", "ticks/degree")

	rb := (1 - phy.Eps) * phy.Range
	type victimResult struct {
		Deg  float64
		Tick float64 // -1 when the victim never completed
	}
	grid := runSeedGrid(o, len(scenarios), func(o Options, row, seed int) []victimResult {
		sc := scenarios[row]
		nw := uniformNetwork(n, delta, phy, uint64(7000+seed))
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, udwn.SimOptions{Seed: uint64(seed + 1), Primitives: sim.CD | sim.ACK,
			Dynamic: sc.mobile})
		drv := sc.driver(uint64(40+seed), protectSet())
		if w, ok := drv.(*dynamics.RandomWalk); ok {
			w.Side = workload.SideForDegree(n, delta, rb)
		}
		trackers := make([]*dynamics.DegreeTracker, len(victims))
		for i, v := range victims {
			trackers[i] = dynamics.NewDegreeTracker(v, rho*phy.Range)
		}
		for tick := 0; tick < maxTicks; tick++ {
			if drv != nil {
				drv.Apply(s, s.Tick())
			}
			for _, tr := range trackers {
				tr.Observe(s)
			}
			s.Step()
			if every(len(victims), func(i int) bool { return s.FirstMassDelivery(victims[i]) >= 0 }) {
				break
			}
		}
		out := make([]victimResult, len(victims))
		for i, v := range victims {
			out[i] = victimResult{Deg: float64(trackers[i].Degree()), Tick: -1}
			if tk := s.FirstMassDelivery(v); tk >= 0 {
				out[i].Tick = float64(tk)
			}
		}
		return out
	})

	for row, sc := range scenarios {
		var ticksDone, dynDeg []float64
		done, total := 0, 0
		for _, cellVictims := range grid[row] {
			for _, vr := range cellVictims {
				total++
				dynDeg = append(dynDeg, vr.Deg)
				if vr.Tick >= 0 {
					done++
					ticksDone = append(ticksDone, vr.Tick)
				}
			}
		}
		sum := stats.Summarize(ticksDone)
		meanDeg := stats.Mean(dynDeg)
		ratio := "-"
		if meanDeg > 0 && sum.N > 0 {
			ratio = fmt.Sprintf("%.1f", sum.Mean/meanDeg)
		}
		t.AddRowf(sc.name, fmt.Sprintf("%d/%d", done, total), sum.Mean, sum.P95, meanDeg, ratio)
	}
	t.AddNote("victims are protected from churn (the theorem requires them alive through the interval); everything else churns/moves")
	t.AddNote("expected shape: completion tracks the dynamic degree; unlimited churn is tolerated, fast mobility (edge-change rate beyond τ) degrades")
	return t
}
