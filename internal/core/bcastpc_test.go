package core

import (
	"math"
	"testing"

	"udwn/internal/rng"
	"udwn/internal/sim"
)

func TestNotifyScaleFor(t *testing.T) {
	// scale^{1/ζ}·R must equal εR/2.
	for _, zeta := range []float64{2, 3, 2.7} {
		eps := 0.1
		scale := NotifyScaleFor(eps, zeta)
		gotRange := math.Pow(scale, 1/zeta)
		if math.Abs(gotRange-eps/2) > 1e-12 {
			t.Fatalf("ζ=%v: range fraction = %v, want %v", zeta, gotRange, eps/2)
		}
	}
}

func TestBcastPCNotifiesAtLowPower(t *testing.T) {
	b := NewBcastStarPC(64, 42, true, 0.001)
	n := &sim.Node{ID: 0, RNG: rng.New(1)}
	// Drive until a slot-0 transmission, then ACK it.
	for i := 0; i < 10000 && !b.Act(n, 0).Transmit; i++ {
		b.Observe(n, 0, &sim.Observation{})
		b.Act(n, 1)
		b.Observe(n, 1, &sim.Observation{})
	}
	b.Observe(n, 0, &sim.Observation{Transmitted: true, Acked: true})
	act := b.Act(n, 1)
	if !act.Transmit {
		t.Fatal("ACKed node must notify in slot 1")
	}
	if act.Msg.Kind != KindNotify {
		t.Fatalf("notification kind = %v, want KindNotify", act.Msg.Kind)
	}
	if act.PowerScale != 0.001 {
		t.Fatalf("PowerScale = %v, want 0.001", act.PowerScale)
	}
}

func TestBcastPCCoveredByNotifyReceipt(t *testing.T) {
	b := NewBcastStarPC(64, 42, false, 0.001)
	n := &sim.Node{ID: 1, RNG: rng.New(2)}
	// Wake up first.
	b.Act(n, 0)
	b.Observe(n, 0, &sim.Observation{Received: []sim.Recv{
		{From: 0, Msg: sim.Message{Kind: KindData, Data: 42}},
	}})
	b.Act(n, 1)
	b.Observe(n, 1, &sim.Observation{})
	// Receive payload in slot 0, low-power notify in slot 1 → stop. The
	// receipt alone certifies proximity: no NTD flag involved.
	b.Act(n, 0)
	b.Observe(n, 0, &sim.Observation{Received: []sim.Recv{
		{From: 0, Msg: sim.Message{Kind: KindData, Data: 42}},
	}})
	b.Act(n, 1)
	b.Observe(n, 1, &sim.Observation{Received: []sim.Recv{
		{From: 2, Msg: sim.Message{Kind: KindNotify, Data: 42}},
	}})
	if !b.Stopped() {
		t.Fatal("notify receipt must stop the PC variant")
	}
}

func TestBcastPCIgnoresNTDFlag(t *testing.T) {
	// The PC variant must not rely on the NTD primitive: the flag alone
	// (without a notify receipt) does nothing.
	b := NewBcastStarPC(64, 42, false, 0.001)
	n := &sim.Node{ID: 1, RNG: rng.New(3)}
	b.Act(n, 0)
	b.Observe(n, 0, &sim.Observation{Received: []sim.Recv{
		{From: 0, Msg: sim.Message{Kind: KindData, Data: 42}},
	}})
	b.Act(n, 1)
	b.Observe(n, 1, &sim.Observation{})
	b.Act(n, 0)
	b.Observe(n, 0, &sim.Observation{Received: []sim.Recv{
		{From: 0, Msg: sim.Message{Kind: KindData, Data: 42}},
	}})
	b.Act(n, 1)
	b.Observe(n, 1, &sim.Observation{NTD: true})
	if b.Stopped() {
		t.Fatal("PC variant must ignore the NTD flag")
	}
}

func TestBcastPCPanics(t *testing.T) {
	for _, bad := range []float64{0, 1, 2, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("scale %v must panic", bad)
				}
			}()
			NewBcastStarPC(10, 1, false, bad)
		}()
	}
}

func TestBcastPCIntegrationLine(t *testing.T) {
	// End to end without the NTD primitive: only CD and ACK granted; the
	// low-power notifications do the suppression work.
	const k = 10
	pts := makeLine(k)
	scale := NotifyScaleFor(0.05, 3) // sense eps/2 = 0.05 over R=2
	s, err := sim.New(sim.Config{
		Space: metricOfLine(pts),
		Model: lineModel(),
		P:     8, Zeta: 3, Eps: 0.1,
		AckScale: 8,
		Options: sim.Options{
			SenseEps:   0.05,
			Slots:      2,
			Seed:       5,
			Primitives: sim.CD | sim.ACK, // no NTD
		},
	}, func(id int) sim.Protocol {
		return NewBcastStarPC(k, 42, id == 0, scale)
	})
	if err != nil {
		t.Fatal(err)
	}
	s.MarkInformed(0)
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if s.FirstDecode(v) < 0 {
				return false
			}
		}
		return true
	}, 60000)
	if !ok {
		t.Fatal("power-control broadcast did not complete without NTD")
	}
}
