package core

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/sim"
)

func TestLocalBcastStopsOnAck(t *testing.T) {
	l := NewLocalBcast(64, 5)
	n := &sim.Node{ID: 1, RNG: rng.New(1)}
	l.Observe(n, 0, &sim.Observation{Transmitted: true, Acked: true})
	if !l.Done() {
		t.Fatal("node must stop after ACK")
	}
	if l.TransmitProb() != 0 {
		t.Fatal("stopped node must have p = 0")
	}
	if l.Act(n, 0).Transmit {
		t.Fatal("stopped node must not transmit")
	}
	// Further observations are ignored.
	l.Observe(n, 0, &sim.Observation{Busy: false})
	if l.TransmitProb() != 0 {
		t.Fatal("stopped node must stay stopped")
	}
}

func TestLocalBcastAckWithoutTransmitIgnored(t *testing.T) {
	l := NewLocalBcast(64, 5)
	n := &sim.Node{ID: 1, RNG: rng.New(1)}
	l.Observe(n, 0, &sim.Observation{Transmitted: false, Acked: true})
	if l.Done() {
		t.Fatal("ACK without own transmission must not stop the node")
	}
}

func TestLocalBcastAdjusts(t *testing.T) {
	l := NewLocalBcast(64, 5)
	n := &sim.Node{ID: 1, RNG: rng.New(1)}
	p0 := l.TransmitProb()
	l.Observe(n, 0, &sim.Observation{Busy: false})
	if l.TransmitProb() != 2*p0 {
		t.Fatal("idle must double")
	}
}

func TestLocalBcastMessage(t *testing.T) {
	l := NewLocalBcastSpontaneous(0.5, 77)
	n := &sim.Node{ID: 2, RNG: rng.New(3)}
	for i := 0; i < 100; i++ {
		if act := l.Act(n, 0); act.Transmit {
			if act.Msg.Kind != KindLocal || act.Msg.Data != 77 {
				t.Fatalf("message = %+v", act.Msg)
			}
			return
		}
	}
	t.Fatal("never transmitted at p = 1/2")
}

// lineNetwork builds k collinear nodes spaced 1 apart under SINR with R = 2.
func lineNetwork(t *testing.T, k int, prims sim.Primitives, factory sim.ProtocolFactory) *sim.Sim {
	t.Helper()
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	s, err := sim.New(sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		AckScale: 8,
		Options: sim.Options{
			Seed:       5,
			Primitives: prims,
		},
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocalBcastIntegration(t *testing.T) {
	const k = 12
	s := lineNetwork(t, k, sim.CD|sim.ACK, func(id int) sim.Protocol {
		return NewLocalBcast(k, int64(id))
	})
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if s.FirstMassDelivery(v) < 0 {
				return false
			}
		}
		return true
	}, 20000)
	if !ok {
		t.Fatal("local broadcast did not complete on a 12-node line")
	}
	for v := 0; v < k; v++ {
		if !s.Protocol(v).(*LocalBcast).Done() {
			t.Fatalf("node %d never detected its ACK", v)
		}
	}
}

func TestLocalBcastSpontaneousIntegration(t *testing.T) {
	const k = 12
	s := lineNetwork(t, k, sim.CD|sim.ACK, func(id int) sim.Protocol {
		return NewLocalBcastSpontaneous(0.5, int64(id))
	})
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if s.FirstMassDelivery(v) < 0 {
				return false
			}
		}
		return true
	}, 20000)
	if !ok {
		t.Fatal("spontaneous local broadcast did not complete")
	}
}

func TestLocalBcastStopLagBounded(t *testing.T) {
	// A stopped node must actually have delivered: Done implies the sim
	// recorded a mass delivery (ACK soundness end to end).
	const k = 8
	s := lineNetwork(t, k, sim.CD|sim.ACK, func(id int) sim.Protocol {
		return NewLocalBcast(k, int64(id))
	})
	s.Run(5000)
	for v := 0; v < k; v++ {
		if s.Protocol(v).(*LocalBcast).Done() && s.FirstMassDelivery(v) < 0 {
			t.Fatalf("node %d stopped without delivering (unsound ACK)", v)
		}
	}
}
