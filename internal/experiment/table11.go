package experiment

import (
	"fmt"
	"math"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/dynamics"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/workload"
)

// Table11StableDistance tests Theorem 5.1 head-on: in a dynamic network
// (mobility + churn), the restarting Bcast(β) informs every node v within
// O(D^c_st(s, v)) — its *stable distance* from the source, measured online
// by the StableTracker over the same execution. The theorem's prediction is
// a bounded informed-tick / stable-arrival ratio across nodes and dynamics
// levels; nodes without a completed stable path carry no guarantee at all.
func Table11StableDistance(o Options) fmt.Stringer {
	n := 256
	if o.Quick {
		n = 96
	}
	delta := 16
	phy := udwn.DefaultPHY()
	rb := (1 - phy.Eps) * phy.Range
	maxTicks := 20000
	if o.Quick {
		maxTicks = 8000
	}
	// The theorem's interval constant c·log n; a practical small multiple.
	stableL := 2 * int(math.Log2(float64(n)))

	type scenario struct {
		name    string
		walk    float64 // step as fraction of R
		churn   float64
		dynamic bool
	}
	scenarios := []scenario{
		{name: "static"},
		{name: "walk 0.01R/t", walk: 0.01, dynamic: true},
		{name: "walk 0.05R/t", walk: 0.05, dynamic: true},
		{name: "churn 0.2%/t", churn: 0.002},
	}

	t := stats.NewTable(
		fmt.Sprintf("Table 11: Bcast vs stable distance under dynamics (Thm. 5.1; n=%d, L=%d, %d seeds)",
			n, stableL, o.seeds()),
		"scenario", "stable-reached", "informed of reached", "mean tick/D_st", "p95 tick/D_st")

	type result struct {
		Ratios                            []float64
		Reached, InformedOfReached, Nodes int
	}
	grid := runSeedGrid(o, len(scenarios), func(o Options, row, seed int) result {
		sc := scenarios[row]
		side := workload.SideForDegree(n, delta, rb)
		pts := workload.UniformDisc(n, side, uint64(19000+seed))
		nw := udwn.NewSINRNetwork(pts, phy)
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewBcast(n, 3, 42, id == 0)
		}, udwn.SimOptions{Seed: uint64(seed + 1), Slots: 2,
			SenseEps: phy.Eps / 2, Primitives: sim.CD | sim.ACK | sim.NTD,
			Dynamic: sc.dynamic})
		s.MarkInformed(0)

		var drv dynamics.Driver
		switch {
		case sc.walk > 0:
			drv = dynamics.NewRandomWalk(sc.walk*phy.Range, side, uint64(77+seed))
		case sc.churn > 0:
			c := dynamics.NewPoissonChurn(sc.churn, uint64(88+seed))
			c.Protect = map[int]bool{0: true}
			drv = c
		}
		tr := dynamics.NewStableTracker(0, n, stableL, rb)
		for tick := 0; tick < maxTicks; tick++ {
			if drv != nil {
				drv.Apply(s, s.Tick())
			}
			tr.Observe(s)
			s.Step()
			// Stop once the comparison is decided for every node:
			// stable paths complete and payloads delivered.
			if tr.Reached() == n && every(n, func(v int) bool { return s.FirstDecode(v) >= 0 }) {
				break
			}
		}
		var r result
		for v := 1; v < n; v++ {
			r.Nodes++
			arr := tr.Arrival(v)
			if arr <= 0 {
				continue // no stable path: the theorem promises nothing
			}
			r.Reached++
			if inf := s.FirstDecode(v); inf >= 0 {
				r.InformedOfReached++
				r.Ratios = append(r.Ratios, float64(inf)/float64(arr))
			}
		}
		return r
	})

	for row, sc := range scenarios {
		var ratios []float64
		reachedTotal, informedOfReached, nodeTotal := 0, 0, 0
		for _, r := range grid[row] {
			ratios = append(ratios, r.Ratios...)
			reachedTotal += r.Reached
			informedOfReached += r.InformedOfReached
			nodeTotal += r.Nodes
		}
		sum := stats.Summarize(ratios)
		t.AddRowf(sc.name,
			fmt.Sprintf("%d/%d", reachedTotal, nodeTotal),
			fmt.Sprintf("%d/%d", informedOfReached, reachedTotal),
			fmt.Sprintf("%.2f", sum.Mean), fmt.Sprintf("%.2f", sum.P95))
	}
	t.AddNote("D_st = tick at which a stable path from the source completed (interval length L); informed = first payload decode")
	t.AddNote("expected shape: every stable-reached node gets informed, with tick/D_st ratios in a bounded band across all dynamics levels (Thm. 5.1's O(D_st))")
	return t
}
