package sim

import (
	"math"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
)

// scriptProto transmits according to a fixed per-slot script and records
// everything it observes.
type scriptProto struct {
	transmitAt map[int]bool // tick -> transmit?
	tick       int
	obs        []Observation
}

func (p *scriptProto) Act(n *Node, slot int) Action {
	t := p.tick
	p.tick++
	if p.transmitAt[t] {
		return Action{Transmit: true, Msg: Message{Kind: 1, Data: int64(n.ID)}}
	}
	return Action{}
}

func (p *scriptProto) Observe(n *Node, slot int, obs *Observation) {
	cp := *obs
	cp.Received = append([]Recv(nil), obs.Received...)
	p.obs = append(p.obs, cp)
}

// lineConfig builds three collinear nodes at x = 0, 1, 2 under SINR with
// P=8, β=1, N=1, ζ=3 (R = 2, RB = 1.8 at ε=0.1).
func lineConfig() Config {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	return Config{
		Space: e,
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       1,
			Primitives: CD | ACK | NTD,
		},
	}
}

func newSim(t *testing.T, cfg Config, scripts map[int]map[int]bool) *Sim {
	t.Helper()
	s, err := New(cfg, func(id int) Protocol {
		return &scriptProto{transmitAt: scripts[id]}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func proto(s *Sim, id int) *scriptProto { return s.Protocol(id).(*scriptProto) }

func TestSingleTransmissionDelivered(t *testing.T) {
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true}})
	s.Step()
	// Node 1 (d=1) and node 2 (d=2 = R, not < R... d=2 gives SINR exactly β,
	// strict inequality fails) — only node 1 decodes; but mass delivery
	// requires only neighbours within RB=1.8, which is just node 1.
	p1 := proto(s, 1)
	if len(p1.obs[0].Received) != 1 || p1.obs[0].Received[0].From != 0 {
		t.Fatalf("node 1 should decode node 0: %+v", p1.obs[0])
	}
	p2 := proto(s, 2)
	if len(p2.obs[0].Received) != 0 {
		t.Fatal("node 2 at exactly R must not decode (strict SINR)")
	}
	if s.FirstMassDelivery(0) != 0 {
		t.Fatalf("node 0 first mass delivery = %d, want 0", s.FirstMassDelivery(0))
	}
	if s.FirstDecode(1) != 0 {
		t.Fatal("node 1 should be marked informed at tick 0")
	}
	if s.FirstDecode(2) != -1 {
		t.Fatal("node 2 must not be informed")
	}
}

func TestHalfDuplex(t *testing.T) {
	// Nodes 0 and 1 transmit simultaneously: neither receives anything, and
	// neither mass-delivers (each is the other's neighbour).
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true}, 1: {0: true}})
	s.Step()
	if len(proto(s, 0).obs[0].Received) != 0 || len(proto(s, 1).obs[0].Received) != 0 {
		t.Fatal("transmitters must not receive")
	}
	if s.FirstMassDelivery(0) != -1 || s.FirstMassDelivery(1) != -1 {
		t.Fatal("simultaneous neighbours cannot mass-deliver")
	}
}

func TestCDBusyIdle(t *testing.T) {
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true}})
	s.Step()
	s.Step()
	// Tick 0: node 1 is 1 < RB away from transmitter 0 → Busy. Node 2 is at
	// distance 2 > RB → received power 1 < busy threshold ≈ 1.37 → Idle.
	if !proto(s, 1).obs[0].Busy {
		t.Fatal("node 1 must sense Busy")
	}
	if proto(s, 2).obs[0].Busy {
		t.Fatal("node 2 must sense Idle")
	}
	// Tick 1: silence → everyone Idle.
	if proto(s, 1).obs[1].Busy || proto(s, 2).obs[1].Busy {
		t.Fatal("silent slot must be Idle")
	}
}

func TestAckOnClearChannel(t *testing.T) {
	// A lone transmitter with zero interference: delivery succeeds and the
	// sensed interference (0) is below any ACK threshold.
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true}})
	s.Step()
	if !proto(s, 0).obs[0].Acked {
		t.Fatal("clear-channel transmission must be ACKed")
	}
}

func TestAckDeniedOnCollision(t *testing.T) {
	// 0 and 2 transmit together; receiver 1 sits between them at d=1 from
	// both: SINR = 1/(1+1) < 1 → no decode → neither transmitter delivers.
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true}, 2: {0: true}})
	s.Step()
	if proto(s, 0).obs[0].Acked || proto(s, 2).obs[0].Acked {
		t.Fatal("failed delivery must not be ACKed")
	}
	if s.FirstDecode(1) != -1 {
		t.Fatal("node 1 must not decode a collision")
	}
}

func TestNTD(t *testing.T) {
	// ε=0.1, R=2 → NTD radius εR/2 = 0.1. A sender at distance 0.05
	// triggers NTD; the far node does not.
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 0.05, Y: 0}, {X: 1.5, Y: 0}})
	cfg := lineConfig()
	cfg.Space = e
	s := newSim(t, cfg, map[int]map[int]bool{0: {0: true}})
	s.Step()
	if !proto(s, 1).obs[0].NTD {
		t.Fatal("node at 0.05 < εR/2 must detect NTD")
	}
	if proto(s, 2).obs[0].NTD {
		t.Fatal("node at 1.5 must not detect NTD")
	}
	if len(proto(s, 2).obs[0].Received) != 1 {
		t.Fatal("node at 1.5 should still decode")
	}
}

func TestPrimitivesGating(t *testing.T) {
	cfg := lineConfig()
	cfg.Primitives = 0
	s := newSim(t, cfg, map[int]map[int]bool{0: {0: true}})
	s.Step()
	if proto(s, 0).obs[0].Acked {
		t.Fatal("ACK must be gated off")
	}
	if proto(s, 1).obs[0].Busy || proto(s, 1).obs[0].NTD {
		t.Fatal("CD/NTD must be gated off")
	}
	if len(proto(s, 1).obs[0].Received) != 1 {
		t.Fatal("message reception works without primitives")
	}
}

func TestFreeAck(t *testing.T) {
	cfg := lineConfig()
	cfg.Primitives = FreeAck
	s := newSim(t, cfg, map[int]map[int]bool{0: {0: true}})
	s.Step()
	if !proto(s, 0).obs[0].Acked {
		t.Fatal("FreeAck must reflect ground-truth delivery")
	}
}

func TestKillRemovesNode(t *testing.T) {
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true, 1: true}})
	s.Kill(1)
	s.Step()
	if s.AliveCount() != 2 {
		t.Fatalf("AliveCount = %d", s.AliveCount())
	}
	// Node 1 is dead: it neither receives nor blocks node 0's mass delivery
	// (no alive neighbours within RB → vacuous success).
	if len(proto(s, 1).obs) != 0 {
		t.Fatal("dead node must not act")
	}
	if s.FirstMassDelivery(0) != 0 {
		t.Fatal("mass delivery over empty neighbourhood must succeed")
	}
}

func TestReviveFreshState(t *testing.T) {
	s := newSim(t, lineConfig(), nil)
	old := s.Protocol(1)
	s.Kill(1)
	s.Revive(1)
	if s.Protocol(1) == old {
		t.Fatal("revive must create a fresh protocol instance")
	}
	if !s.Alive(1) {
		t.Fatal("revived node must be alive")
	}
	s.Revive(1) // reviving an alive node is a no-op
	if s.AliveCount() != 3 {
		t.Fatal("double revive corrupted state")
	}
}

func TestNeighborsAndCounts(t *testing.T) {
	s := newSim(t, lineConfig(), nil)
	// RB = 1.8: node 0's neighbours = {1}; node 1's = {0, 2}.
	if got := s.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := s.NeighborCount(1); got != 2 {
		t.Fatalf("NeighborCount(1) = %d", got)
	}
	s.Kill(2)
	if got := s.NeighborCount(1); got != 1 {
		t.Fatalf("NeighborCount(1) after kill = %d", got)
	}
}

func TestAsyncPeriods(t *testing.T) {
	cfg := lineConfig()
	cfg.Async = true
	s := newSim(t, cfg, nil)
	s.Run(24)
	// Each node acts every period ∈ {2,3,4} ticks: in 24 ticks it acts
	// between 6 and 12 times.
	for id := 0; id < 3; id++ {
		acts := len(proto(s, id).obs)
		if acts < 6 || acts > 12 {
			t.Fatalf("node %d acted %d times in 24 ticks", id, acts)
		}
	}
}

// TestAsyncHear pins passive decodes in async mode: a node that decodes in a
// tick where it does not act still gets FirstDecode, counts toward the
// transmitter's mass delivery and coverage, and gets no Observe call that
// tick. The test fixes the clocks: node 0 acts (and transmits) at ticks 0, 2,
// 4, …, node 1 at ticks 1, 4, 7, …, so node 1 first decodes passively at
// tick 0 and decodes while acting at ticks 4, 10, ….
func TestAsyncHear(t *testing.T) {
	cfg := lineConfig()
	cfg.Async = true
	cfg.TrackCoverage = true
	always := map[int]bool{}
	for i := 0; i < 100; i++ {
		always[i] = true
	}
	s := newSim(t, cfg, map[int]map[int]bool{0: always})
	s.period[0], s.phase[0] = 2, 0
	s.period[1], s.phase[1] = 3, 1
	passive, active := 0, 0
	for tick := 0; tick < 30; tick++ {
		acts0, acts1 := s.actsThisTick(0), s.actsThisTick(1)
		obs1, mass0 := len(proto(s, 1).obs), s.MassDeliveries(0)
		s.Step()
		got := proto(s, 1).obs[obs1:]
		if acts1 != (len(got) == 1) {
			t.Fatalf("tick %d: node 1 acts=%v but got %d observations", tick, acts1, len(got))
		}
		if !acts0 {
			continue
		}
		// Node 1 (d=1) is node 0's only neighbour within R_B = 1.8.
		if s.MassDeliveries(0) != mass0+1 {
			t.Fatalf("tick %d: node 0's transmission was not mass-delivered", tick)
		}
		if !acts1 {
			passive++
			continue
		}
		active++
		if rc := got[0].Received; len(rc) != 1 || rc[0].From != 0 {
			t.Fatalf("tick %d: acting node 1 observed %+v, want node 0's frame", tick, rc)
		}
	}
	if s.FirstDecode(1) != 0 || s.FirstMassDelivery(0) != 0 || s.FirstFullCoverage(0) != 0 {
		t.Fatalf("first decode %d, first mass delivery %d, first coverage %d; want 0 from the passive decode at tick 0",
			s.FirstDecode(1), s.FirstMassDelivery(0), s.FirstFullCoverage(0))
	}
	if passive == 0 || active == 0 {
		t.Fatalf("vacuous: %d passive and %d acting decodes", passive, active)
	}
}

func TestTwoSlotRounds(t *testing.T) {
	cfg := lineConfig()
	cfg.Slots = 2
	s := newSim(t, cfg, nil)
	s.Run(4)
	p := proto(s, 0)
	wantSlots := []int{0, 1, 0, 1}
	for i, o := range p.obs {
		if o.Slot != wantSlots[i] {
			t.Fatalf("obs %d slot = %d, want %d", i, o.Slot, wantSlots[i])
		}
	}
	if s.Round() != 2 {
		t.Fatalf("Round = %d, want 2", s.Round())
	}
}

func TestConfigValidation(t *testing.T) {
	base := lineConfig()
	factory := func(int) Protocol { return &scriptProto{} }
	cases := map[string]func(Config) Config{
		"no space":      func(c Config) Config { c.Space = nil; return c },
		"no model":      func(c Config) Config { c.Model = nil; return c },
		"bad eps":       func(c Config) Config { c.Eps = 1.5; return c },
		"bad slots":     func(c Config) Config { c.Slots = 9; return c },
		"async 2-slot":  func(c Config) Config { c.Async = true; c.Slots = 2; return c },
		"bad P":         func(c Config) Config { c.P = 0; return c },
		"bad sense eps": func(c Config) Config { c.SenseEps = 2; return c },
		"P NaN":         func(c Config) Config { c.P = math.NaN(); return c },
		"Zeta NaN":      func(c Config) Config { c.Zeta = math.NaN(); return c },
		"Eps NaN":       func(c Config) Config { c.Eps = math.NaN(); return c },
		"SenseEps NaN":  func(c Config) Config { c.SenseEps = math.NaN(); return c },
	}
	for name, mod := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := New(mod(base), factory); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if _, err := New(base, nil); err == nil {
		t.Fatal("nil factory must error")
	}
}

func TestMoveRequiresDynamic(t *testing.T) {
	s := newSim(t, lineConfig(), nil)
	if err := s.Move(0, geom.Point{X: 5, Y: 5}); err == nil {
		t.Fatal("Move on static sim must error")
	}
	cfg := lineConfig()
	cfg.Dynamic = true
	s2 := newSim(t, cfg, nil)
	if err := s2.Move(0, geom.Point{X: 5, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Space().Dist(0, 1); got < 4 {
		t.Fatalf("move not applied: d = %v", got)
	}
}

func TestDynamicNeighborsTrackMoves(t *testing.T) {
	cfg := lineConfig()
	cfg.Dynamic = true
	s := newSim(t, cfg, nil)
	if s.NeighborCount(0) != 1 {
		t.Fatalf("initial NeighborCount(0) = %d", s.NeighborCount(0))
	}
	if err := s.Move(2, geom.Point{X: 0.5, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if s.NeighborCount(0) != 2 {
		t.Fatalf("NeighborCount(0) after move = %d", s.NeighborCount(0))
	}
}

func TestRunUntil(t *testing.T) {
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {3: true}})
	ticks, ok := s.RunUntil(func(s *Sim) bool { return s.FirstMassDelivery(0) >= 0 }, 100)
	if !ok || ticks != 4 {
		t.Fatalf("RunUntil = (%d, %v), want (4, true)", ticks, ok)
	}
	_, ok = s.RunUntil(func(s *Sim) bool { return false }, 5)
	if ok {
		t.Fatal("unsatisfiable predicate reported success")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		cfg := lineConfig()
		cfg.Seed = 99
		s, err := New(cfg, func(id int) Protocol {
			return &coinProto{}
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(50)
		return []int{s.Transmissions(0), s.Transmissions(1), s.Transmissions(2),
			int(s.TotalMassDeliveries())}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged: %v vs %v", a, b)
		}
	}
}

// coinProto transmits with probability 1/4 each slot using the node RNG.
type coinProto struct{}

func (coinProto) Act(n *Node, slot int) Action {
	return Action{Transmit: n.RNG.Bernoulli(0.25)}
}
func (coinProto) Observe(*Node, int, *Observation) {}

func TestContentionInstrumentation(t *testing.T) {
	s, err := New(lineConfig(), func(id int) Protocol { return fixedProb(0.25) })
	if err != nil {
		t.Fatal(err)
	}
	// All three nodes within radius 3 of node 1 → contention 0.75.
	if got := s.Contention(1, 3); got != 0.75 {
		t.Fatalf("Contention = %v", got)
	}
	// Radius 0.5: only node 1 itself.
	if got := s.Contention(1, 0.5); got != 0.25 {
		t.Fatalf("Contention small radius = %v", got)
	}
	s.Kill(0)
	if got := s.Contention(1, 3); got != 0.5 {
		t.Fatalf("Contention after kill = %v", got)
	}
}

type fixedProb float64

func (p fixedProb) Act(n *Node, slot int) Action {
	return Action{Transmit: n.RNG.Bernoulli(float64(p))}
}
func (fixedProb) Observe(*Node, int, *Observation) {}
func (p fixedProb) TransmitProb() float64          { return float64(p) }

func TestUDGSimulation(t *testing.T) {
	// Same line topology under UDG(1.5): node 0's transmission reaches node
	// 1; node 2 is out of range. Simultaneous 0 and 2 collide at node 1.
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	cfg := Config{
		Space: e, Model: model.NewUDG(1.5),
		P: 1, Zeta: 3, Eps: 0.1,
		Options: Options{Seed: 1, Primitives: CD | ACK},
	}
	s := newSim(t, cfg, map[int]map[int]bool{0: {0: true, 1: true}, 2: {1: true}})
	s.Step() // only 0 transmits
	if len(proto(s, 1).obs[0].Received) != 1 {
		t.Fatal("UDG neighbour must decode")
	}
	s.Step() // 0 and 2 transmit: collision at 1
	if len(proto(s, 1).obs[1].Received) != 0 {
		t.Fatal("UDG collision must destroy both")
	}
}

func TestMarkInformed(t *testing.T) {
	s := newSim(t, lineConfig(), nil)
	s.MarkInformed(2)
	if s.FirstDecode(2) != 0 {
		t.Fatal("MarkInformed failed")
	}
	s.Run(3)
	s.MarkInformed(2) // no-op: already informed
	if s.FirstDecode(2) != 0 {
		t.Fatal("MarkInformed must not overwrite")
	}
}
