package faults

import (
	"fmt"
	"strings"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// scriptProto transmits according to a fixed per-tick script and records
// every observation, so tests can see exactly what the protocol layer
// experienced under injection.
type scriptProto struct {
	transmitAt map[int]bool
	acts       int
	obs        []sim.Observation
}

func (p *scriptProto) Act(n *sim.Node, slot int) sim.Action {
	t := p.acts
	p.acts++
	if p.transmitAt[t] {
		return sim.Action{Transmit: true, Msg: sim.Message{Kind: 1, Data: int64(n.ID)}}
	}
	return sim.Action{}
}

func (p *scriptProto) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	cp := *obs
	cp.Received = append([]sim.Recv(nil), obs.Received...)
	p.obs = append(p.obs, cp)
}

// lineSim builds three collinear nodes at x = 0, 1, 2 under SINR with P=8,
// β=1, N=1, ζ=3 (R = 2, RB = 1.8 at ε=0.1) — the same micro-topology the
// sim package tests use — wired to the given fault engine.
func lineSim(t *testing.T, eng *Engine, scripts map[int]map[int]bool) *sim.Sim {
	t.Helper()
	return pointSim(t, eng, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}, scripts)
}

// pointSim is lineSim over arbitrary node positions.
func pointSim(t *testing.T, eng *Engine, pts []geom.Point, scripts map[int]map[int]bool) *sim.Sim {
	t.Helper()
	e := metric.NewEuclidean(pts)
	s, err := sim.New(sim.Config{
		Space: e,
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		Options: sim.Options{
			Seed:       1,
			Primitives: sim.CD | sim.ACK | sim.NTD,
			Injector:   eng,
		},
	}, func(id int) sim.Protocol {
		return &scriptProto{transmitAt: scripts[id]}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func proto(s *sim.Sim, id int) *scriptProto { return s.Protocol(id).(*scriptProto) }

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Fatal("zero spec must be disabled")
	}
	for i, sp := range []Spec{
		{CrashRate: 0.1}, {JamFraction: 0.1}, {DeafFraction: 0.1},
		{DropRate: 0.1}, {SenseRate: 0.1}, {StallRate: 0.1},
	} {
		if !sp.Enabled() {
			t.Fatalf("spec %d must be enabled", i)
		}
	}
}

// A jammed node forces a carrier onto the air every slot while its protocol
// freezes; the carrier is sensed as interference but never decoded.
func TestJammerTransmitsButIsNeverDecoded(t *testing.T) {
	eng := New(Spec{Seed: 3, JamFraction: 1, Protect: []int{1, 2}})
	s := lineSim(t, eng, nil)
	const ticks = 5
	for i := 0; i < ticks; i++ {
		s.Step()
	}
	if got := eng.Counters().Get("jam-slots"); got != ticks {
		t.Fatalf("jam-slots = %d, want %d (node 0 jams every slot)", got, ticks)
	}
	if acts := proto(s, 0).acts; acts != 0 {
		t.Fatalf("jammed protocol acted %d times, want 0 (frozen)", acts)
	}
	p1 := proto(s, 1)
	if len(p1.obs) != ticks {
		t.Fatalf("node 1 observed %d slots, want %d", len(p1.obs), ticks)
	}
	for i, obs := range p1.obs {
		if len(obs.Received) != 0 {
			t.Fatalf("tick %d: node 1 decoded a jam carrier: %+v", i, obs.Received)
		}
		if !obs.Busy {
			t.Fatalf("tick %d: node 1 must sense the jam carrier as Busy", i)
		}
	}
	if s.FirstDecode(1) != -1 {
		t.Fatal("jam carriers must not mark receivers informed")
	}
	if s.FirstMassDelivery(0) != -1 {
		t.Fatal("an undecodable carrier must not count as mass delivery")
	}
	if !eng.Faulty(0) || eng.Faulty(1) || eng.Faulty(2) {
		t.Fatal("Faulty must flag exactly the jammed node")
	}
}

// A deaf receiver decodes nothing, which voids its neighbours' mass
// deliveries too (ground truth, not a protocol-level illusion).
func TestDeafReceiverBlocksDecodeAndMassDelivery(t *testing.T) {
	eng := New(Spec{Seed: 5, DeafFraction: 1, Protect: []int{0}})
	s := lineSim(t, eng, map[int]map[int]bool{0: {0: true}})
	s.Step()
	if got := len(proto(s, 1).obs[0].Received); got != 0 {
		t.Fatalf("deaf node decoded %d messages", got)
	}
	if s.FirstDecode(1) != -1 {
		t.Fatal("deaf node must not be informed")
	}
	if s.FirstMassDelivery(0) != -1 {
		t.Fatal("delivery to a deaf neighbourhood must not count")
	}
	if eng.Counters().Get("deaf-drops") == 0 {
		t.Fatal("deaf-drops counter not incremented")
	}
	if eng.Faulty(0) || !eng.Faulty(1) {
		t.Fatal("Faulty must flag the deaf nodes and spare the protected one")
	}
}

// Deaf-drops count frames lost that would have arrived: a deaf receiver
// beyond every transmitter's decode range loses nothing, so it adds nothing
// to the counter, while an in-range deaf receiver adds exactly one drop per
// frame it would have decoded.
func TestDeafDropsCountOnlyDecodableFrames(t *testing.T) {
	eng := New(Spec{Seed: 5, DeafFraction: 1, Protect: []int{0}})
	// Node 1 is deaf at distance 1 (inside R = 2); node 2 is deaf at
	// distance 50, which no transmission of this network can reach.
	s := pointSim(t, eng, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 50, Y: 0}},
		map[int]map[int]bool{0: {0: true, 2: true}})
	for i := 0; i < 3; i++ {
		s.Step()
	}
	if got := eng.Counters().Get("deaf-drops"); got != 2 {
		t.Fatalf("deaf-drops = %d, want 2 (node 0's two frames to in-range node 1 only)", got)
	}
	if s.FirstDecode(1) != -1 || s.FirstDecode(2) != -1 {
		t.Fatal("deaf nodes must not be informed")
	}
}

// A faulted run on a Euclidean SINR network answers reception from the
// spatial index: the injector does not force the listener scan, and the
// index run drops, counts and decodes exactly what the scan would.
func TestFaultedRunUsesIndexedReception(t *testing.T) {
	pts := workload.UniformDisc(150, workload.SideForDegree(150, 12, 1.8), 3)
	spec := Spec{Seed: 21, DeafFraction: 0.1, DropRate: 0.2, JamFraction: 0.05,
		SenseRate: 0.05, CrashRate: 0.002, CrashDowntime: 20, Protect: []int{0}}
	run := func(space metric.Space) (*sim.Sim, string) {
		eng := New(spec)
		s, err := sim.New(sim.Config{
			Space: space,
			Model: model.NewSINR(8, 1, 1, 3, 0.1),
			P:     8, Zeta: 3, Eps: 0.1,
			Options: sim.Options{
				Seed:       4,
				Primitives: sim.CD | sim.ACK,
				Injector:   eng,
			},
		}, func(int) sim.Protocol { return coinProto(0.05) })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			s.Step()
		}
		var b strings.Builder
		for v := 0; v < s.N(); v++ {
			fmt.Fprintf(&b, "%d:%d/%d ", v, s.FirstDecode(v), s.FirstMassDelivery(v))
		}
		fmt.Fprintf(&b, "\ntx=%d mass=%d counters: %s", s.TotalTransmissions(),
			s.TotalMassDeliveries(), eng.Counters())
		return s, b.String()
	}
	grid, got := run(metric.NewEuclidean(pts))
	if mode := grid.IndexMode(); mode != "grid" {
		t.Fatalf("IndexMode = %q, want grid", mode)
	}
	if grid.IndexStats().TxQueries == 0 {
		t.Fatal("faulted run never answered a reception from the index")
	}
	// Hiding the Euclidean type leaves the simulator no index to use.
	scan, want := run(opaqueSpace{metric.NewEuclidean(pts)})
	if mode := scan.IndexMode(); mode != "scan" {
		t.Fatalf("opaque space: IndexMode = %q, want scan", mode)
	}
	if got != want {
		t.Fatalf("index and scan runs diverge:\nindex: %s\nscan:  %s", got, want)
	}
	if !strings.Contains(got, "deaf-drops") || !strings.Contains(got, "dropped-recv") {
		t.Fatalf("drop counters never fired, the comparison is vacuous: %s", got)
	}
}

// opaqueSpace hides a space's concrete type from the simulator.
type opaqueSpace struct{ metric.Space }

// coinProto transmits with a fixed probability every slot.
type coinProto float64

func (p coinProto) Act(n *sim.Node, slot int) sim.Action {
	return sim.Action{Transmit: n.RNG.Bernoulli(float64(p)), Msg: sim.Message{Kind: 1, Data: int64(n.ID)}}
}

func (coinProto) Observe(*sim.Node, int, *sim.Observation) {}

// DropRate 1 loses every reception.
func TestDropRateOneBlocksEverything(t *testing.T) {
	eng := New(Spec{Seed: 7, DropRate: 1})
	s := lineSim(t, eng, map[int]map[int]bool{0: {0: true, 2: true}})
	for i := 0; i < 4; i++ {
		s.Step()
	}
	if s.FirstDecode(1) != -1 || s.FirstMassDelivery(0) != -1 {
		t.Fatal("DropRate=1 must suppress all decodes and deliveries")
	}
	if eng.Counters().Get("dropped-recv") == 0 {
		t.Fatal("dropped-recv counter not incremented")
	}
}

// CrashRate 1 crashes every unprotected node at tick 0; they revive
// CrashDowntime ticks later with fresh protocol state, then crash again.
func TestCrashRestartCycle(t *testing.T) {
	eng := New(Spec{Seed: 11, CrashRate: 1, CrashDowntime: 3, Protect: []int{0}})
	s := lineSim(t, eng, nil)
	p1 := proto(s, 1)

	s.Step() // tick 0: nodes 1, 2 crash
	if s.Alive(1) || s.Alive(2) {
		t.Fatal("unprotected nodes must crash at tick 0 under CrashRate=1")
	}
	if !s.Alive(0) {
		t.Fatal("protected node must never crash")
	}
	s.Step() // tick 1: still down
	s.Step() // tick 2: still down
	if s.Alive(1) {
		t.Fatal("node 1 revived before its downtime elapsed")
	}
	s.Step() // tick 3: revive fires (then CrashRate=1 re-crashes at tick 4)
	if !s.Alive(1) || !s.Alive(2) {
		t.Fatal("nodes must restart after CrashDowntime ticks")
	}
	if proto(s, 1) == p1 {
		t.Fatal("restart must install a fresh protocol instance (churn arrival)")
	}
	if c := eng.Counters().Get("crashes"); c != 2 {
		t.Fatalf("crashes = %d, want 2", c)
	}
	if r := eng.Counters().Get("restarts"); r != 2 {
		t.Fatalf("restarts = %d, want 2", r)
	}
}

// StallRate 1 freezes every clock from tick 0: protocols neither act nor
// observe for StallLen ticks, then run again.
func TestStallFreezesProtocols(t *testing.T) {
	eng := New(Spec{Seed: 13, StallRate: 1, StallLen: 4})
	s := lineSim(t, eng, map[int]map[int]bool{0: {0: true, 1: true}})
	for i := 0; i < 4; i++ { // ticks 0..3: everyone stalled
		s.Step()
	}
	for v := 0; v < 3; v++ {
		if acts := proto(s, v).acts; acts != 0 {
			t.Fatalf("stalled node %d acted %d times", v, acts)
		}
		if !s.Alive(v) {
			t.Fatalf("stalls must not kill node %d", v)
		}
	}
	if c := eng.Counters().Get("stalls"); c != 3 {
		t.Fatalf("stalls = %d, want 3 (one per node at tick 0)", c)
	}
	s.Step() // tick 4: stalls over (and immediately re-drawn for tick 4? no:
	// the re-draw happens in BeginTick(4) since stallEnd=4, so tick 4 stalls
	// again under StallRate=1.
	if acts := proto(s, 0).acts; acts != 0 {
		t.Fatalf("StallRate=1 must immediately re-stall, yet node 0 acted %d times", acts)
	}
}

// SenseRate 1 flips every CD reading (and the ACK/NTD field the slot could
// have populated), exactly two flips per acting node per tick.
func TestSenseCorruptionFlipsReadings(t *testing.T) {
	eng := New(Spec{Seed: 17, SenseRate: 1})
	s := lineSim(t, eng, nil) // silent network: true readings are Idle / no NTD
	const ticks = 3
	for i := 0; i < ticks; i++ {
		s.Step()
	}
	for v := 0; v < 3; v++ {
		for i, obs := range proto(s, v).obs {
			if !obs.Busy {
				t.Fatalf("node %d tick %d: silent channel must read Busy under inverted sensing", v, i)
			}
			if !obs.NTD {
				t.Fatalf("node %d tick %d: NTD must be flipped for listeners", v, i)
			}
		}
	}
	if c := eng.Counters().Get("sense-flips"); c != 3*ticks*2 {
		t.Fatalf("sense-flips = %d, want %d (2 per node-tick)", c, 3*ticks*2)
	}
}

// fingerprint serialises everything observable about a run: per-node
// observations plus the engine's counters.
func fingerprint(s *sim.Sim, eng *Engine) string {
	var b strings.Builder
	for v := 0; v < s.N(); v++ {
		fmt.Fprintf(&b, "node %d acts=%d obs=%+v\n", v, proto(s, v).acts, proto(s, v).obs)
	}
	fmt.Fprintf(&b, "counters: %s\n", eng.Counters())
	fmt.Fprintf(&b, "first: %d %d %d / %d %d %d\n",
		s.FirstDecode(0), s.FirstDecode(1), s.FirstDecode(2),
		s.FirstMassDelivery(0), s.FirstMassDelivery(1), s.FirstMassDelivery(2))
	return b.String()
}

// Fault-injected runs are pure functions of the fault seed: identical seeds
// replay byte-identically, different seeds diverge.
func TestEngineDeterminism(t *testing.T) {
	run := func(faultSeed uint64) string {
		eng := New(Spec{Seed: faultSeed, DropRate: 0.5, SenseRate: 0.3,
			CrashRate: 0.05, CrashDowntime: 3, Protect: []int{0}})
		s := lineSim(t, eng, map[int]map[int]bool{0: {0: true, 2: true, 5: true, 9: true}})
		for i := 0; i < 12; i++ {
			s.Step()
		}
		return fingerprint(s, eng)
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same fault seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if c := run(43); c == a {
		t.Fatal("different fault seeds produced identical runs")
	}
}

// Subset membership is a pure per-node function of the seed: two engines
// with the same spec agree node by node, and protection always wins.
func TestMembershipDeterministicAndProtected(t *testing.T) {
	spec := Spec{Seed: 99, JamFraction: 0.4, DeafFraction: 0.3}
	a, b := New(spec), New(spec)
	faulty := 0
	for v := 0; v < 200; v++ {
		if a.Faulty(v) != b.Faulty(v) {
			t.Fatalf("engines disagree on node %d", v)
		}
		if a.Faulty(v) {
			faulty++
		}
	}
	if faulty < 60 || faulty > 160 {
		t.Fatalf("faulty fraction implausible: %d/200 under jam 0.4 + deaf 0.3", faulty)
	}
	spec.Protect = []int{0, 1, 2, 3, 4}
	p := New(spec)
	for v := 0; v < 5; v++ {
		if p.Faulty(v) {
			t.Fatalf("protected node %d marked faulty", v)
		}
	}
}

// The memberships the first BeginTick draws are the pure per-node draws
// that Faulty makes, node for node, at every fraction, with and without
// protected nodes.
func TestMembershipDrawnOnceMatchesPureDraw(t *testing.T) {
	const n = 200
	pts := workload.UniformDisc(n, 20, 1)
	fracs := []float64{0, 0.02, 0.5}
	for _, jam := range fracs {
		for _, deaf := range fracs {
			for _, protect := range [][]int{nil, {0, 3, 7, 150}} {
				eng := New(Spec{Seed: 7, JamFraction: jam, DeafFraction: deaf, Protect: protect})
				pointSim(t, eng, pts, nil).Step()
				jammed, deafened := 0, 0
				for v := 0; v < n; v++ {
					if eng.jammed[v] != eng.jammedNode(v) || eng.deafened[v] != eng.deafNode(v) {
						t.Fatalf("jam %v deaf %v protect %v: node %d drawn jammed=%v deaf=%v, pure draw %v %v",
							jam, deaf, protect, v, eng.jammed[v], eng.deafened[v], eng.jammedNode(v), eng.deafNode(v))
					}
					if eng.jammed[v] {
						jammed++
					}
					if eng.deafened[v] {
						deafened++
					}
				}
				if (jam > 0) != (jammed > 0) || (deaf > 0) != (deafened > 0) {
					t.Fatalf("jam %v deaf %v: %d jammed and %d deaf of %d; the oracle must see members exactly when a fraction is set",
						jam, deaf, jammed, deafened, n)
				}
			}
		}
	}
}

// Fault decisions allocate nothing: every per-(node, tick) draw forks its
// stream by value. A tick here is BeginTick, then Seized, DropRecv and
// Observation at each of 64 nodes, with every class that draws per tick
// armed; the crash rate is so small that every node draws and none dies.
func TestDecisionsAllocateNothing(t *testing.T) {
	const n = 64
	eng := New(Spec{Seed: 5, CrashRate: 1e-12, StallRate: 0.01,
		SenseRate: 0.2, JamFraction: 0.1, DropRate: 0.3})
	s := pointSim(t, eng, workload.UniformDisc(n, 20, 1), nil)
	tick := 0
	var obs sim.Observation
	allocs := testing.AllocsPerRun(50, func() {
		eng.BeginTick(s, tick)
		for v := 0; v < n; v++ {
			eng.Seized(v, tick)
			eng.DropRecv(v, (v+1)%n, tick)
			obs = sim.Observation{Transmitted: v%2 == 0}
			eng.Observation(v, tick, &obs)
		}
		tick++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per tick, want 0", allocs)
	}
	if eng.Counters().Get("stalls") == 0 || eng.Counters().Get("sense-flips") == 0 ||
		eng.Counters().Get("dropped-recv") == 0 {
		t.Fatalf("probe drew too little to pin anything: %s", eng.Counters())
	}
}
