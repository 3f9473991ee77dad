package core

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/sensing"
	"udwn/internal/sim"
)

func makeLine(k int) []geom.Point {
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	return pts
}

// twoSlotSim builds a two-slot SINR sim (R = 2) over the given points with
// ε/2-precision primitives, matching the Bcast configuration.
func twoSlotSim(t *testing.T, pts []geom.Point, factory sim.ProtocolFactory) *sim.Sim {
	t.Helper()
	s, err := sim.New(sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		AckScale: 8,
		Options: sim.Options{
			SenseEps:   0.05,
			Slots:      2,
			Seed:       5,
			Primitives: sim.CD | sim.ACK | sim.NTD,
		},
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ntdThresholdFor(pts []geom.Point) float64 {
	m := model.NewSINR(8, 1, 1, 3, 0.1)
	th := sensing.NewThresholds(8, 3, 0.05, m.R(), m.Params())
	return th.NTDRSS
}

func TestSpontBcastUnitTransitions(t *testing.T) {
	sb := NewSpontBcast(0.1, 0.5, 100, 42, false)
	n := &sim.Node{ID: 1, RNG: rng.New(1)}
	if sb.State() != Undecided || sb.Informed() {
		t.Fatal("initial state wrong")
	}
	// Force a dom transmission, then ACK it: node becomes dominator.
	for i := 0; i < 1000; i++ {
		act := sb.Act(n, 0)
		if act.Transmit {
			if act.Msg.Kind != KindDom {
				t.Fatalf("undecided node transmits %v, want KindDom", act.Msg.Kind)
			}
			break
		}
		sb.Observe(n, 0, &sim.Observation{})
		sb.Observe(n, 1, &sim.Observation{})
	}
	sb.Observe(n, 0, &sim.Observation{Transmitted: true, Acked: true})
	if sb.State() != Dominator {
		t.Fatalf("ACKed construction transmission must make a dominator, got %v", sb.State())
	}
	// Slot 1 retransmits the notification.
	if act := sb.Act(n, 1); !act.Transmit || act.Msg.Kind != KindDom {
		t.Fatal("dominator must retransmit KindDom in slot 1 after ACK")
	}
}

func TestSpontBcastDominatedByNearNotification(t *testing.T) {
	sb := NewSpontBcast(0.1, 0.001, 10, 42, false)
	n := &sim.Node{ID: 1, RNG: rng.New(2)}
	sb.Act(n, 0)
	sb.Observe(n, 0, &sim.Observation{
		Received: []sim.Recv{{From: 3, Msg: sim.Message{Kind: KindDom}, RSS: 1}},
	})
	sb.Act(n, 1)
	// Near KindDom notification (RSS above threshold 10) dominates.
	sb.Observe(n, 1, &sim.Observation{
		Received: []sim.Recv{{From: 3, Msg: sim.Message{Kind: KindDom}, RSS: 50}},
	})
	if sb.State() != Dominated {
		t.Fatalf("near notification must dominate, got %v", sb.State())
	}
	if sb.Act(n, 0).Transmit {
		t.Fatal("dominated uninformed node must stay silent")
	}
}

func TestSpontBcastFarNotificationIgnored(t *testing.T) {
	sb := NewSpontBcast(0.1, 0.001, 10, 42, false)
	n := &sim.Node{ID: 1, RNG: rng.New(3)}
	sb.Act(n, 0)
	sb.Observe(n, 0, &sim.Observation{
		Received: []sim.Recv{{From: 3, Msg: sim.Message{Kind: KindDom}, RSS: 1}},
	})
	sb.Act(n, 1)
	sb.Observe(n, 1, &sim.Observation{
		Received: []sim.Recv{{From: 3, Msg: sim.Message{Kind: KindDom}, RSS: 5}},
	})
	if sb.State() != Undecided {
		t.Fatal("far notification must not dominate")
	}
}

func TestSpontBcastRelayAndInform(t *testing.T) {
	sb := NewSpontBcast(0.5, 0.001, 10, 42, false)
	n := &sim.Node{ID: 1, RNG: rng.New(4)}
	// Become a dominator by fiat: transmit + ACK.
	sb.txDomSlot0 = true
	sb.Observe(n, 0, &sim.Observation{Transmitted: true, Acked: true})
	if sb.State() != Dominator {
		t.Fatal("setup failed")
	}
	// Not informed yet: no payload relay.
	if sb.TransmitProb() != 0 {
		t.Fatal("uninformed dominator must not relay")
	}
	// Payload receipt informs.
	sb.Observe(n, 0, &sim.Observation{
		Received: []sim.Recv{{From: 2, Msg: sim.Message{Kind: KindData, Data: 42}}},
	})
	if !sb.Informed() {
		t.Fatal("payload receipt must inform")
	}
	// Now it relays with p0.
	if sb.TransmitProb() != 0.5 {
		t.Fatalf("relay probability = %v, want 0.5", sb.TransmitProb())
	}
	found := false
	for i := 0; i < 100; i++ {
		if act := sb.Act(n, 0); act.Transmit {
			if act.Msg.Kind != KindData || act.Msg.Data != 42 {
				t.Fatalf("relay message = %+v", act.Msg)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("dominator never relayed at p0 = 0.5")
	}
	// ACK on the relay ends it.
	sb.Observe(n, 0, &sim.Observation{Transmitted: true, Acked: true})
	if !sb.RelayDone() {
		t.Fatal("ACKed relay must complete")
	}
	if sb.TransmitProb() != 0 {
		t.Fatal("completed relay must be silent")
	}
}

func TestSpontBcastDomTrafficDoesNotInform(t *testing.T) {
	sb := NewSpontBcast(0.1, 0.001, 10, 42, false)
	n := &sim.Node{ID: 1, RNG: rng.New(5)}
	sb.Observe(n, 0, &sim.Observation{
		Received: []sim.Recv{{From: 2, Msg: sim.Message{Kind: KindDom}}},
	})
	if sb.Informed() {
		t.Fatal("construction traffic must not count as the payload")
	}
}

func TestSpontBcastIntegrationLine(t *testing.T) {
	const k = 10
	pts := makeLine(k)
	ntd := ntdThresholdFor(pts)
	s := twoSlotSim(t, pts, func(id int) sim.Protocol {
		return NewSpontBcast(0.1, 0.25, ntd, 42, id == 0)
	})
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if !s.Protocol(v).(*SpontBcast).Informed() {
				return false
			}
		}
		return true
	}, 60000)
	if !ok {
		t.Fatal("spontaneous broadcast did not complete on a line")
	}
	// Everyone decided a role along the way (no permanent undecided nodes
	// on a quiesced network).
	decided := 0
	for v := 0; v < k; v++ {
		if s.Protocol(v).(*SpontBcast).State() != Undecided {
			decided++
		}
	}
	if decided < k/2 {
		t.Fatalf("only %d/%d nodes decided a role", decided, k)
	}
}

func TestSpontBcastCoLocatedDomination(t *testing.T) {
	// Two co-located nodes (distance 0.04, safely inside the NTD radius
	// εR/4 = 0.05): once one becomes a dominator, the other must end
	// dominated, not dominator — exercising the NTD suppression path.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.04, Y: 0}}
	ntd := ntdThresholdFor(pts)
	s := twoSlotSim(t, pts, func(id int) sim.Protocol {
		return NewSpontBcast(0.1, 0.25, ntd, 42, id == 0)
	})
	s.RunUntil(func(s *sim.Sim) bool {
		a := s.Protocol(0).(*SpontBcast).State()
		b := s.Protocol(1).(*SpontBcast).State()
		return a != Undecided && b != Undecided
	}, 20000)
	states := []DomState{
		s.Protocol(0).(*SpontBcast).State(),
		s.Protocol(1).(*SpontBcast).State(),
	}
	nDom, nSub := 0, 0
	for _, st := range states {
		switch st {
		case Dominator:
			nDom++
		case Dominated:
			nSub++
		}
	}
	if nDom != 1 || nSub != 1 {
		t.Fatalf("co-located pair ended as %v; want one dominator, one dominated", states)
	}
}

func TestSpontBcastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad p0")
		}
	}()
	NewSpontBcast(0, 0.25, 1, 1, false)
}

// metricOfLine and lineModel are shared helpers for two-slot test sims.
func metricOfLine(pts []geom.Point) metric.Space { return metric.NewEuclidean(pts) }

func lineModel() model.Model { return model.NewSINR(8, 1, 1, 3, 0.1) }
