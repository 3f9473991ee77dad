package sim

import (
	"testing"

	"udwn/internal/metric"
	"udwn/internal/metrics"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// benchSim builds an n-node uniform SINR simulation where every node
// transmits with probability p each slot.
func benchSim(b *testing.B, n int, p float64, prims Primitives) *Sim {
	b.Helper()
	pts := workload.UniformDisc(n, workload.SideForDegree(n, 16, 9), 1)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:       1,
		Primitives: prims,
	}, func(int) Protocol { return fixedProb(p) })
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStepSparse(b *testing.B) {
	// Equilibrium-like load: ~4 transmitters per slot at n=1024.
	s := benchSim(b, 1024, 1.0/256, CD|ACK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkStepUninstrumented is the control for BenchmarkStepInstrumented:
// the identical workload with Config.Metrics nil. The pair proves the
// nil-registry hot path costs one branch — the two must be within noise of
// each other (the instrumented variant additionally pays the probMass sweep
// and the atomic adds, visible as its delta over this baseline).
func BenchmarkStepUninstrumented(b *testing.B) {
	s := benchSim(b, 1024, 1.0/256, CD|ACK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepInstrumented(b *testing.B) {
	s := benchSim(b, 1024, 1.0/256, CD|ACK)
	s.met = newStepMetrics(metrics.NewRegistry(), false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepDense(b *testing.B) {
	// Stress load: ~128 transmitters per slot.
	s := benchSim(b, 1024, 1.0/8, CD|ACK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepNoPrimitives(b *testing.B) {
	s := benchSim(b, 1024, 1.0/64, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepUDG(b *testing.B) {
	pts := workload.UniformDisc(1024, workload.SideForDegree(1024, 16, 10), 1)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewUDG(10),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:       1,
		Primitives: CD | ACK,
	}, func(int) Protocol { return fixedProb(1.0 / 64) })
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// sparseSim4096 builds the large sparse-topology workload behind the
// indexed-vs-brute BenchmarkStep pair: 4096 nodes at mean degree 16, a
// field-oblivious UDG model, and no sensing primitives, so the indexed run
// exercises the transmitter-outward reception path with Phase 2 skipped.
func sparseSim4096(b *testing.B) *Sim {
	b.Helper()
	pts := workload.UniformDisc(4096, workload.SideForDegree(4096, 16, 10), 1)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewUDG(10),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed: 1,
	}, func(int) Protocol { return fixedProb(1.0 / 64) })
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStepSparse4096Indexed(b *testing.B) {
	s := sparseSim4096(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkStepSparse4096Brute disables the spatial index on the identical
// workload, forcing the listener-oriented O(n·|tx|) reception scan — the
// pre-index slot loop. Both variants count interferers with the same pass
// over the channel's transmitters, so the ratio of this pair is the index
// speedup of reception on sparse topologies.
func BenchmarkStepSparse4096Brute(b *testing.B) {
	s := sparseSim4096(b)
	s.grid = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkNewSim(b *testing.B) {
	pts := workload.UniformDisc(1024, workload.SideForDegree(1024, 16, 9), 1)
	space := metric.NewEuclidean(pts)
	mdl := model.NewSINR(1500, 1.5, 1, 3, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := New(Config{
			Space: space, Model: mdl,
			P: 1500, Zeta: 3, Noise: 1, Eps: 0.1, Seed: uint64(i),
		}, func(int) Protocol { return fixedProb(0.1) })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// cohortProto is the deterministic traffic of the dense field benchmark: a
// persistent cohort of k transmitters that rotates to the next k node ids
// every `period` slots. No RNG.
type cohortProto struct {
	id, t, n, k, period int
}

func (c *cohortProto) Act(nd *Node, slot int) Action {
	t := c.t
	c.t++
	start := (t / c.period * c.k) % c.n
	if (c.id-start+c.n)%c.n < c.k {
		return Action{Transmit: true, Msg: Message{Kind: 9, Data: int64(c.id)}}
	}
	return Action{}
}

func (c *cohortProto) Observe(*Node, int, *Observation) {}

// denseSim8192 builds the dense-deployment workload of the field engine:
// 8192 nodes (beyond the pathloss cache budget, so every summed term pays a
// model evaluation) under full sensing, with a 128-transmitter cohort
// rotating every 64 slots. Its query boxes exceed the grid's cell count, so
// every slot sums every receiver.
func denseSim8192(b *testing.B) *Sim {
	b.Helper()
	pts := workload.UniformDisc(8192, workload.SideForDegree(8192, 16, 9), 3)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:       3,
		Primitives: CD | ACK,
	}, func(id int) Protocol {
		return &cohortProto{id: id, n: 8192, k: 128, period: 64}
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStepDense8192(b *testing.B) {
	s := denseSim8192(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkStepStrip3200 has the shape of the end-to-end benchmark's
// sparse-strip workload: 3200 nodes on a 3200×R_B strip (beyond the
// pathloss cache budget), SINR with CD|ACK|NTD at the strip's sensing
// precision, and about 2.5 transmitters per slot. The field engine sums
// only the few receivers near each transmitter.
func BenchmarkStepStrip3200(b *testing.B) {
	const n = 3200
	mdl := model.NewSINR(1500, 1.5, 1, 3, 0.1)
	pts := workload.Strip(n, n, mdl.CommRadius(0.1), 1)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: mdl,
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1, SenseEps: 0.05,
		BusyScale: 0.25, AckScale: 8,
		Seed:       1,
		Primitives: CD | ACK | NTD,
	}, func(int) Protocol { return fixedProb(2.5 / n) })
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
