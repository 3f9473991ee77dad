package core

import (
	"testing"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// TestLocalBcastVolumetric runs LocalBcast over a 3-D deployment with
// α = ζ = 4 (the unified model needs ζ > λ = 3 in 3-space). Nothing in the
// protocol changes — the same binary completes in a volumetric network.
func TestLocalBcastVolumetric(t *testing.T) {
	const n = 128
	const delta = 12
	const rComm = 10.0
	rb := 0.9 * rComm
	side := workload.SideForDegree3(n, delta, rb)
	space := metric.NewEuclidean3(workload.UniformBox3(n, side, 21))

	// P = β·N·R^ζ with ζ = 4.
	p := 1.5 * rComm * rComm * rComm * rComm
	s, err := sim.New(sim.Config{
		Space: space,
		Model: model.NewSINR(p, 1.5, 1, 4, 0.1),
		P:     p, Zeta: 4, Eps: 0.1,
		BusyScale: 0.25,
		AckScale:  8,
		Options: sim.Options{
			Seed:       3,
			Primitives: sim.CD | sim.ACK,
		},
	}, func(id int) sim.Protocol {
		return NewLocalBcast(n, int64(id))
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < n; v++ {
			if s.FirstMassDelivery(v) < 0 {
				return false
			}
		}
		return true
	}, 40000)
	if !ok {
		t.Fatal("local broadcast did not complete in 3-space")
	}
}
