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
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       1,
			Primitives: prims,
		},
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
	s.met = newStepMetrics(metrics.NewRegistry())
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
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       1,
			Primitives: CD | ACK,
		},
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
// indexed-vs-brute BenchmarkStep pair: 4096 nodes at mean degree 16, a UDG
// model, and no sensing primitives, so the indexed run exercises the
// transmitter-outward reception path and a Phase 2 field summed only over
// the transmitters and the listeners inside their decode cutoffs.
func sparseSim4096(b testing.TB) *Sim {
	b.Helper()
	pts := workload.UniformDisc(4096, workload.SideForDegree(4096, 16, 10), 1)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewUDG(10),
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{Seed: 1},
	}, func(int) Protocol { return fixedProb(1.0 / 64) })
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// TestIndexCandidatesPerQuery pins the spatial index's pruning on the
// sparse n=4096 shape: over 200 slots each transmitter query enumerates at
// least 200 times fewer candidate listeners than the n a listener scan pairs
// it with (12,711 queries and 211,549 candidates, 16.6 per query: 246×).
func TestIndexCandidatesPerQuery(t *testing.T) {
	s := sparseSim4096(t)
	s.Run(200)
	st := s.IndexStats()
	if st.TxQueries == 0 || 200*st.Candidates > int64(s.N())*st.TxQueries {
		t.Fatalf("%d candidates over %d queries at n=%d: want at most n/200 per query",
			st.Candidates, st.TxQueries, s.N())
	}
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
			P: 1500, Zeta: 3, Eps: 0.1,
			Options: Options{Seed: uint64(i)},
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
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       3,
			Primitives: CD | ACK,
		},
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

// stripSim3200 has the shape of the end-to-end benchmark's sparse-strip
// workload: 3200 nodes on a 3200×R_B strip (beyond the pathloss cache
// budget), SINR with CD|ACK|NTD at the strip's sensing precision, and about
// 2.5 transmitters per slot. The field engine sums only the few receivers
// near each transmitter.
func stripSim3200(tb testing.TB) *Sim {
	tb.Helper()
	const n = 3200
	mdl := model.NewSINR(1500, 1.5, 1, 3, 0.1)
	pts := workload.Strip(n, n, mdl.CommRadius(0.1), 1)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: mdl,
		P:     1500, Zeta: 3, Eps: 0.1,
		BusyScale: 0.25, AckScale: 8,
		Options: Options{
			SenseEps:   0.05,
			Seed:       1,
			Primitives: CD | ACK | NTD,
		},
	}, func(int) Protocol { return fixedProb(2.5 / n) })
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestStripSubsetShare pins the field engine's subset path on the strip
// shape: at least 99% of 2,000 slots sum only their demand set (all 2,000
// did when this was written).
func TestStripSubsetShare(t *testing.T) {
	s := stripSim3200(t)
	s.Run(2000)
	if st := s.FieldStats(); 100*st.SubsetSlots < 99*(st.SubsetSlots+st.RebuildSlots) {
		t.Fatalf("%d subset and %d all-receiver slots: want at least 99%% subset",
			st.SubsetSlots, st.RebuildSlots)
	}
}

func BenchmarkStepStrip3200(b *testing.B) {
	s := stripSim3200(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkFieldSumAll times the all-receiver field sum alone, per summed
// term (64 transmitters × 1,024 receivers), over power rows read from the
// path-loss cache and computed by the row kernel (a dynamic field).
func BenchmarkFieldSumAll(b *testing.B) {
	for _, dynamic := range []bool{false, true} {
		name := "cached"
		if dynamic {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			pts := workload.UniformDisc(1024, workload.SideForDegree(1024, 16, 9), 1)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
				P:     1500, Zeta: 3, Eps: 0.1,
				Options: Options{Seed: 1, Primitives: CD | ACK, Dynamic: dynamic},
			}, func(int) Protocol { return fixedProb(0.1) })
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 1024; w += 16 {
				s.txBuf = append(s.txBuf, w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.fieldSumAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.txBuf)*s.n), "ns/term")
		})
	}
}
