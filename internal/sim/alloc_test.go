package sim

import (
	"testing"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// TestStepZeroAllocs pins the uninstrumented hot path at zero steady-state
// heap allocations per slot: the per-slot transmitted map, the per-slot view
// slice, and the per-node Observation value have all been replaced by scratch
// state on Sim. The first Step warms the lazily sized buffers (AllocsPerRun
// performs a warm-up call of its own on top of the explicit one here), so any
// non-zero reading is a regression on the steady state.
func TestStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Sim
	}{
		{"sinr", func() *Sim {
			pts := workload.UniformDisc(512, workload.SideForDegree(512, 16, 9), 1)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
				P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
				Options: Options{
					Seed:       1,
					Primitives: CD | ACK,
				},
			}, func(int) Protocol { return fixedProb(1.0 / 64) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"sinr-uncached", func() *Sim {
			// Dynamic disables the path-loss cache, so every all-receiver
			// sum computes power rows into the preallocated row buffer.
			pts := workload.UniformDisc(512, workload.SideForDegree(512, 16, 9), 1)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
				P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
				Options: Options{
					Seed:       1,
					Primitives: CD | ACK,
					Dynamic:    true,
				},
			}, func(int) Protocol { return fixedProb(1.0 / 64) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"udg-indexed", func() *Sim {
			pts := workload.UniformDisc(512, workload.SideForDegree(512, 16, 10), 2)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewUDG(10),
				P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
				Options: Options{Seed: 2},
			}, func(int) Protocol { return fixedProb(1.0 / 64) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			// Warm the lazily sized scratch: per-listener reception buffers
			// only reach their steady-state capacity once enough distinct
			// transmitter sets have been realised.
			s.Run(500)
			if avg := testing.AllocsPerRun(50, func() { s.Step() }); avg != 0 {
				t.Fatalf("Step allocates %.2f times per slot in steady state, want 0", avg)
			}
		})
	}
}
