package experiment

import (
	"fmt"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/metric"
	"udwn/internal/pathloss"
	"udwn/internal/sim"
	"udwn/internal/stats"
	"udwn/internal/workload"
)

// Table5CrossModel runs the identical LocalBcast binary over every
// communication model the unified framework captures — SINR, SINR with
// log-normal shadowing, UDG, QUDG (pessimistic grey zone), the Protocol
// model and BIG — on the same node deployment. The paper's point is
// pan-model operability: the algorithm consumes only CD/ACK and works in
// all of them with comparable round counts (normalised by the per-model
// realised degree).
func Table5CrossModel(o Options) fmt.Stringer {
	n := 512
	if o.Quick {
		n = 128
	}
	delta := 16
	phy := udwn.DefaultPHY()
	rb := (1 - phy.Eps) * phy.Range
	side := workload.SideForDegree(n, delta, rb)

	t := stats.NewTable(
		fmt.Sprintf("Table 5: one LocalBcast across models (n=%d, same deployment, %d seeds)", n, o.seeds()),
		"model", "avg degree", "completion ticks", "ticks/degree", "all done")

	type cell struct {
		name string
		mk   func(topoSeed uint64) *udwn.Network
	}
	cells := []cell{
		{"sinr", func(ts uint64) *udwn.Network {
			return udwn.NewSINRNetwork(workload.UniformDisc(n, side, ts), phy)
		}},
		{"sinr+shadow", func(ts uint64) *udwn.Network {
			pts := workload.UniformDisc(n, side, ts)
			sp := pathloss.NewShadowed(metric.NewEuclidean(pts), 0.1, ts^0xbeef)
			return udwn.NewSINRSpace(sp, phy)
		}},
		{"udg", func(ts uint64) *udwn.Network {
			return udwn.NewUDGNetwork(workload.UniformDisc(n, side, ts), phy)
		}},
		{"qudg", func(ts uint64) *udwn.Network {
			return udwn.NewQUDGNetwork(workload.UniformDisc(n, side, ts), phy, 0.75, nil)
		}},
		{"protocol", func(ts uint64) *udwn.Network {
			return udwn.NewProtocolNetwork(workload.UniformDisc(n, side, ts), phy, 2)
		}},
		{"big(k=2)", func(ts uint64) *udwn.Network {
			pts := workload.UniformDisc(n, side, ts)
			return udwn.NewBIGNetwork(workload.GeometricGraph(pts, rb), 2, phy)
		}},
	}

	type result struct {
		Deg, Ticks float64
		Done       bool
	}
	grid := runSeedGrid(o, len(cells), func(o Options, row, seed int) result {
		nw := cells[row].mk(uint64(5000 + seed))
		s := o.newSim(nw, func(id int) sim.Protocol {
			return core.NewLocalBcast(n, int64(id))
		}, udwn.SimOptions{Seed: uint64(seed + 1), Primitives: sim.CD | sim.ACK})
		degSum := 0.0
		for v := 0; v < n; v++ {
			degSum += float64(s.NeighborCount(v))
		}
		all, _, done := localRun(s, n, 60000)
		return result{Deg: degSum / float64(n), Ticks: all, Done: done}
	})

	for row, c := range cells {
		var ticks, degs []float64
		okAll := true
		for _, r := range grid[row] {
			degs = append(degs, r.Deg)
			ticks = append(ticks, r.Ticks)
			okAll = okAll && r.Done
		}
		mt, md := stats.Mean(ticks), stats.Mean(degs)
		ratio := "-"
		if md > 0 {
			ratio = fmt.Sprintf("%.1f", mt/md)
		}
		t.AddRowf(c.name, md, mt, ratio, fmt.Sprintf("%v", okAll))
	}
	t.AddNote("identical protocol binary and identical deployments; only the reception rule and metric change")
	t.AddNote("expected shape: comparable ticks/degree across models; QUDG's pessimistic grey zone and BIG's hop metric shift degrees, not the algorithm")
	return t
}
