package sim

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
)

// chanProto transmits/tunes per a fixed script of (transmit, channel).
type chanProto struct {
	script []struct {
		tx bool
		ch int32
	}
	step int
	obs  []Observation
}

func (p *chanProto) Act(n *Node, slot int) Action {
	if p.step >= len(p.script) {
		return Action{}
	}
	st := p.script[p.step]
	p.step++
	return Action{Transmit: st.tx, Channel: st.ch, Msg: Message{Kind: 1, Data: int64(n.ID)}}
}

func (p *chanProto) Observe(n *Node, slot int, obs *Observation) {
	cp := *obs
	cp.Received = append([]Recv(nil), obs.Received...)
	p.obs = append(p.obs, cp)
}

func chanSim(t *testing.T, channels int, scripts map[int][]struct {
	tx bool
	ch int32
}) *Sim {
	t.Helper()
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	s, err := New(Config{
		Space: e,
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       1,
			Channels:   channels,
			Primitives: CD | ACK,
		},
	}, func(id int) Protocol {
		return &chanProto{script: scripts[id]}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type step = struct {
	tx bool
	ch int32
}

func TestCrossChannelIsolation(t *testing.T) {
	// Node 0 transmits on channel 1; node 1 listens on channel 0: no decode.
	// Next slot both on channel 1: decode.
	s := chanSim(t, 2, map[int][]step{
		0: {{true, 1}, {true, 1}},
		1: {{false, 0}, {false, 1}},
	})
	s.Step()
	p1 := s.Protocol(1).(*chanProto)
	if len(p1.obs[0].Received) != 0 {
		t.Fatal("cross-channel decode must not happen")
	}
	s.Step()
	if len(p1.obs[1].Received) != 1 {
		t.Fatal("same-channel decode must happen")
	}
}

func TestCrossChannelNoInterference(t *testing.T) {
	// Nodes 0 and 2 transmit on different channels; node 1 (between them)
	// tunes to node 0's channel and decodes it despite node 2 transmitting —
	// the collision that destroys both on a single channel.
	s := chanSim(t, 2, map[int][]step{
		0: {{true, 0}},
		1: {{false, 0}},
		2: {{true, 1}},
	})
	s.Step()
	p1 := s.Protocol(1).(*chanProto)
	if len(p1.obs[0].Received) != 1 || p1.obs[0].Received[0].From != 0 {
		t.Fatalf("other-channel transmitter must not interfere: %+v", p1.obs[0])
	}
	// Single-channel control: the same scripts on one channel collide.
	s1 := chanSim(t, 1, map[int][]step{
		0: {{true, 0}},
		1: {{false, 0}},
		2: {{true, 0}},
	})
	s1.Step()
	if len(s1.Protocol(1).(*chanProto).obs[0].Received) != 0 {
		t.Fatal("single-channel control must collide")
	}
}

func TestPerChannelCarrierSense(t *testing.T) {
	// Node 1 next to a transmitter on channel 1 reads Busy only when tuned
	// to channel 1.
	s := chanSim(t, 2, map[int][]step{
		0: {{true, 1}, {true, 1}},
		1: {{false, 0}, {false, 1}},
	})
	s.Step()
	s.Step()
	p1 := s.Protocol(1).(*chanProto)
	if p1.obs[0].Busy {
		t.Fatal("channel 0 must read Idle while traffic is on channel 1")
	}
	if !p1.obs[1].Busy {
		t.Fatal("channel 1 must read Busy next to its transmitter")
	}
}

func TestChannelClamping(t *testing.T) {
	// Channel index beyond range clamps instead of corrupting state.
	s := chanSim(t, 2, map[int][]step{
		0: {{true, 99}},
		1: {{false, 1}},
	})
	s.Step()
	if len(s.Protocol(1).(*chanProto).obs[0].Received) != 1 {
		t.Fatal("clamped channel 99 → 1 should reach the listener on 1")
	}
}

func TestChannelsConfigValidation(t *testing.T) {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}})
	mk := func(c Config) error {
		_, err := New(c, func(int) Protocol { return &chanProto{} })
		return err
	}
	base := Config{
		Space: e, Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P: 8, Zeta: 3, Eps: 0.1,
	}
	bad := base
	bad.Channels = 17
	if mk(bad) == nil {
		t.Fatal("17 channels must be rejected")
	}
	bad = base
	bad.Channels = 4
	bad.Async = true
	if mk(bad) == nil {
		t.Fatal("async multi-channel must be rejected")
	}
	ok := base
	ok.Channels = 4
	if err := mk(ok); err != nil {
		t.Fatal(err)
	}
}

func TestMassDeliveryAcrossChannels(t *testing.T) {
	// Node 1 (neighbours 0 and 2) transmits on channel 0, but node 2 is
	// tuned to channel 1 → no atomic mass delivery; coverage accumulates
	// once node 2 retunes.
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	s, err := New(Config{
		Space: e,
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		Options: Options{Seed: 1, Channels: 2, TrackCoverage: true},
	}, func(id int) Protocol {
		scripts := map[int][]step{
			1: {{true, 0}, {true, 0}},
			2: {{false, 1}, {false, 0}},
		}
		return &chanProto{script: scripts[id]}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if s.FirstMassDelivery(1) != -1 {
		t.Fatal("mass delivery must fail while a neighbour is off-channel")
	}
	s.Step()
	if s.FirstMassDelivery(1) != 1 {
		t.Fatalf("mass delivery at tick 1, got %d", s.FirstMassDelivery(1))
	}
	if s.FirstFullCoverage(1) != 1 {
		t.Fatalf("coverage completes at tick 1, got %d", s.FirstFullCoverage(1))
	}
}
