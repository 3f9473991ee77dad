package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/workload"
)

// diffProto is the probe protocol of the grid/scan differential test: its
// actions are deterministic functions of the node RNG stream (transmit
// decision, channel hop, power scale), and every observation it receives is
// serialized — including RSS float bits — so two runs agree iff their entire
// observable histories agree byte for byte. With hold > 1 a node draws a
// fresh action only every hold-th time it acts and repeats it in between.
type diffProto struct {
	p      float64
	nchan  int
	scales bool
	hold   int
	acts   int
	last   Action
	log    *strings.Builder
}

func (d *diffProto) Act(n *Node, slot int) Action {
	held := d.hold > 1 && d.acts%d.hold != 0
	d.acts++
	if held {
		return d.last
	}
	act := Action{
		Transmit: n.RNG.Bernoulli(d.p),
		Msg:      Message{Kind: 1, Data: int64(n.ID)},
	}
	if d.nchan > 1 {
		act.Channel = int32(n.RNG.Intn(d.nchan))
	}
	if d.scales {
		switch n.RNG.Intn(4) {
		case 0:
			act.PowerScale = 0.5
		case 1:
			act.PowerScale = 2
		}
	}
	d.last = act
	return act
}

func (d *diffProto) Observe(n *Node, slot int, obs *Observation) {
	fmt.Fprintf(d.log, "o %d %d %d t=%v b=%v a=%v n=%v", obs.Tick, n.ID, slot,
		obs.Transmitted, obs.Busy, obs.Acked, obs.NTD)
	for _, rc := range obs.Received {
		fmt.Fprintf(d.log, " r(%d,%d,%d,%x)", rc.From, rc.Msg.Kind, rc.Msg.Data,
			math.Float64bits(rc.RSS))
	}
	d.log.WriteByte('\n')
}

func (d *diffProto) TransmitProb() float64 { return d.p }

// diffInjector is a deterministic in-package fault injector: every decision
// is a pure function of (seed, node, tick), never of call order or count, so
// it satisfies the Injector contract while letting the differential test
// cover fault-laden runs without importing internal/faults (which imports
// this package).
type diffInjector struct {
	seed uint64
}

func (d *diffInjector) hash(a, b, c uint64) uint64 {
	x := d.seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func (d *diffInjector) BeginTick(s *Sim, tick int) {
	n := s.N()
	for v := 0; v < n; v++ {
		switch d.hash(1, uint64(v), uint64(tick)) % 97 {
		case 0:
			s.Kill(v)
		case 1:
			s.Revive(v)
		}
	}
}

func (d *diffInjector) Seized(v, tick int) (Action, bool) {
	if d.hash(2, uint64(v), uint64(tick))%53 == 0 {
		return Action{Transmit: true, Msg: Message{Kind: 99}}, true
	}
	return Action{}, false
}

func (d *diffInjector) DropRecv(u, v, tick int) bool {
	return d.hash(3, uint64(u)<<20|uint64(v), uint64(tick))%31 == 0
}

func (d *diffInjector) Observation(v, tick int, obs *Observation) {
	if d.hash(4, uint64(v), uint64(tick))%41 == 0 {
		obs.Busy = !obs.Busy
	}
}

// diffScenario describes one randomized configuration of the differential
// test.
type diffScenario struct {
	name     string
	n        int
	ticks    int
	seed     uint64
	model    model.Model
	channels int
	scales   bool
	dynamic  bool
	churn    bool
	inject   bool
	prims    Primitives
	// hold is diffProto's action hold period; 0 and 1 draw every act.
	hold int
	// p is diffProto's transmit probability; 0 means 0.05.
	p float64
}

// runDiff builds and runs one simulation for sc and returns its full
// serialized history. disableGrid forces the brute-force scan paths after
// construction (construction itself is shared, so both variants start from
// bit-identical path-loss caches; neither builds a neighbour cache, so the
// scan variant's neighbourhoods come from the O(n) scan).
func runDiff(t *testing.T, sc diffScenario, disableGrid bool) string {
	return runDiffWatch(t, sc, disableGrid, nil)
}

// runDiffWatch is runDiff with a hook, letting the field differential suite
// reuse the same scenario machinery: watch (when non-nil) receives the
// constructed sim before its first step and returns a check to run after
// every step.
func runDiffWatch(t *testing.T, sc diffScenario, disableGrid bool, watch func(*Sim) func()) string {
	t.Helper()
	var log strings.Builder
	side := workload.SideForDegree(sc.n, 12, 10)
	pts := workload.UniformDisc(sc.n, side, sc.seed)
	cfg := Config{
		Space: metric.NewEuclidean(pts),
		Model: sc.model,
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:          sc.seed,
			Primitives:    sc.prims,
			Channels:      sc.channels,
			Dynamic:       sc.dynamic,
			TrackCoverage: true,
			Observer: func(ev SlotEvent) {
				fmt.Fprintf(&log, "e %d tx=%v d=%d md=%v cb=%d ci=%d a=%d nt=%d\n",
					ev.Tick, ev.Transmitters, ev.Decodes, ev.MassDeliverers,
					ev.CDBusy, ev.CDIdle, ev.Acks, ev.NTDs)
			},
		},
	}
	if sc.inject {
		cfg.Injector = &diffInjector{seed: sc.seed ^ 0xfa017}
	}
	p := sc.p
	if p == 0 {
		p = 0.05
	}
	s, err := New(cfg, func(int) Protocol {
		return &diffProto{p: p, nchan: sc.channels, scales: sc.scales, hold: sc.hold, log: &log}
	})
	if err != nil {
		t.Fatal(err)
	}
	if disableGrid {
		s.grid = nil
	}
	check := func() {}
	if watch != nil {
		check = watch(s)
	}
	drv := rng.New(sc.seed ^ 0xd21f)
	for i := 0; i < sc.ticks; i++ {
		if sc.churn {
			if drv.Bernoulli(0.08) {
				s.Kill(drv.Intn(sc.n))
			}
			if drv.Bernoulli(0.08) {
				s.Revive(drv.Intn(sc.n))
			}
		} else if sc.dynamic {
			// Consume the churn draws anyway so mobility scenarios share the
			// same driver stream shape.
			for j := 0; j < drv.Intn(3); j++ {
				v := drv.Intn(sc.n)
				if err := s.Move(v, geom.Point{X: drv.Range(0, side), Y: drv.Range(0, side)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Step()
		check()
	}
	// Final per-node outcomes close the history.
	for v := 0; v < s.N(); v++ {
		fmt.Fprintf(&log, "f %d %v %d %d %d %d %d %d\n", v, s.Alive(v),
			s.FirstDecode(v), s.FirstMassDelivery(v), s.Transmissions(v),
			s.MassDeliveries(v), s.FirstFullCoverage(v), s.CoverageCount(v))
	}
	fmt.Fprintf(&log, "t %d %d %d\n", s.TotalTransmissions(), s.TotalMassDeliveries(), s.InvalidOps())
	// Guard against a vacuous comparison: the grid variant must actually have
	// used the index, for reception (injected runs included) and for the
	// neighbourhood queries of coverage tracking.
	if !disableGrid {
		if got := s.IndexMode(); got != "grid" {
			t.Fatalf("IndexMode = %q, want grid", got)
		}
		st := s.IndexStats()
		if st.TxQueries == 0 {
			t.Fatal("indexed reception path was never exercised")
		}
		if st.NeighborQueries == 0 {
			t.Fatal("grid-backed neighbour path was never exercised")
		}
	} else if got := s.IndexMode(); got != "scan" {
		t.Fatalf("IndexMode = %q, want scan", got)
	}
	return log.String()
}

// checkFrames returns a runDiffWatch hook that checks every listener's frame
// after each slot against the reception rule: an alive listener holds the
// frame of the lowest-id same-channel transmitter inside its decodeCutoff
// that the model decodes and the injector keeps, and no frame when there is
// none. Decodes runs at the slot's tick, which Rayleigh fading reads. With
// multi nil it also checks model.Model's one-frame contract, at most one
// such decodable transmitter per listener; otherwise it counts in *multi the
// listener-slots that offered two or more.
func checkFrames(t *testing.T, multi *int) func(*Sim) func() {
	return func(s *Sim) func() {
		return func() {
			s.tick-- // back to the slot Step just resolved
			defer func() { s.tick++ }()
			for v := 0; v < s.n; v++ {
				want, decodable := -1, 0
				vw := &s.views[s.chanBuf[v]]
				for _, w := range vw.tx {
					if !s.alive[v] || s.isTxBuf[v] || s.cfg.Space.Dist(w, v) > s.decodeCutoff(w) ||
						!s.cfg.Model.Decodes(vw, w, v) {
						continue
					}
					decodable++
					if inj := s.cfg.Injector; want < 0 && (inj == nil || !inj.DropRecv(w, v, s.tick)) {
						want = w
					}
				}
				if decodable > 1 {
					if multi == nil {
						t.Fatalf("tick %d: listener %d can decode %d transmitters", s.tick, v, decodable)
					}
					*multi++
				}
				if got := s.recvBuf[v].From; s.heard[v] != (want >= 0) || want >= 0 && got != want {
					t.Fatalf("tick %d: listener %d holds a frame %v from %d, want one from %d",
						s.tick, v, s.heard[v], got, want)
				}
			}
		}
	}
}

// floorUse counts how the SINR decode floor acted over a grid-backed run:
// the candidates it rejected, the walks it narrowed below their decode
// cutoff, and the walks it narrowed below rNeigh with a delivery flag still
// set, which deliveryWalk then finished.
type floorUse struct{ rejected, shrank, delivery int }

// watchFloor wraps the runDiffWatch hook inner, adding floorUse's counts
// after every slot of a grid-backed run.
func watchFloor(use *floorUse, inner func(*Sim) func()) func(*Sim) func() {
	return func(s *Sim) func() {
		check := inner(s)
		return func() {
			check()
			if s.grid == nil {
				return
			}
			use.rejected = int(s.FieldStats().CertifiedNoDecode)
			for _, u := range s.txBuf {
				r := s.decodeRadius(u)
				if r < s.decodeCutoff(u) {
					use.shrank++
				}
				if r < s.rNeigh && openAfterWalk(s, u, r) {
					use.delivery++
				}
			}
		}
	}
}

// openAfterWalk reports whether one of u's delivery flags was still set when
// its reception walk of radius r ended: whether no alive neighbour inside
// the walk that lacks u's frame lies within that flag's radius.
func openAfterWalk(s *Sim, u int, r float64) bool {
	mass, ack := true, true
	r2 := r * indexSlack * (r * indexSlack)
	pu := s.euclid.Point(u)
	for v := 0; v < s.n; v++ {
		if v == u || !s.alive[v] || s.heardFrom(v, u) || s.euclid.Point(v).Dist2(pu) > r2 {
			continue
		}
		d := s.cfg.Space.Dist(u, v)
		mass = mass && d > s.rb
		ack = ack && d > s.rbAck
	}
	return mass || ack
}

// TestGridScanEquivalence is the differential property test of the spatial
// index: for every scenario the grid-backed simulation must produce the
// byte-identical observable history — receptions, sensing outcomes, slot
// events, RSS bits, per-node outcomes — as the brute-force scan simulation.
// Both drivers also pass checkFrames' one-frame check after every slot, which
// asks Decodes about every pair, so a decode floor that rejected a
// decodable pair or a walk narrowed too far would show there. The
// heavy-slot SINR scenarios, at transmit probabilities of 0.3 and more, must
// exercise the floor: it rejects candidates, narrows walks below their
// decode cutoff, and narrows some below rNeigh with a delivery flag still
// set, so that deliveryWalk runs.
func TestGridScanEquivalence(t *testing.T) {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	scenarios := []diffScenario{
		{name: "udg", n: 220, ticks: 120, seed: 1,
			model: model.NewUDG(10),
			prims: CD | ACK | NTD},
		{name: "sinr", n: 220, ticks: 120, seed: 2,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK},
		{name: "qudg-grey", n: 220, ticks: 120, seed: 3,
			model: model.NewQUDG(7, 11, grey),
			prims: CD},
		{name: "protocol", n: 220, ticks: 120, seed: 4,
			model: model.NewProtocol(9, 13),
			prims: FreeAck},
		{name: "rayleigh", n: 180, ticks: 100, seed: 5,
			model: model.NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 5),
			prims: CD | ACK},
		{name: "channels-3", n: 220, ticks: 120, seed: 6, channels: 3,
			model: model.NewUDG(10),
			prims: CD},
		{name: "power-scales", n: 220, ticks: 120, seed: 7, scales: true,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK},
		{name: "churn", n: 220, ticks: 150, seed: 8, churn: true,
			model: model.NewUDG(10),
			prims: CD | ACK},
		{name: "mobility", n: 220, ticks: 150, seed: 9, dynamic: true,
			model: model.NewUDG(10),
			prims: CD | ACK},
		{name: "mobility-sinr-scales", n: 180, ticks: 120, seed: 10, dynamic: true, scales: true,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK | NTD},
		{name: "faults", n: 220, ticks: 150, seed: 11, inject: true, dynamic: true,
			model: model.NewUDG(10),
			prims: CD | ACK},
		{name: "faults-sinr-scales", n: 180, ticks: 120, seed: 12, inject: true, scales: true,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK | NTD},
		{name: "heavy-sinr", n: 220, ticks: 100, seed: 13, p: 0.3,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK},
		{name: "heavy-sinr-channels-3", n: 220, ticks: 100, seed: 14, p: 0.6, channels: 3,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK | NTD},
		{name: "heavy-sinr-faults-scales", n: 180, ticks: 100, seed: 15, p: 0.3, inject: true, scales: true,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK | NTD},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var use floorUse
			grid := runDiffWatch(t, sc, false, watchFloor(&use, checkFrames(t, nil)))
			brute := runDiffWatch(t, sc, true, checkFrames(t, nil))
			if grid != brute {
				t.Fatalf("grid and brute histories diverge:\n%s", firstDiffLine(grid, brute))
			}
			if sc.p >= 0.3 && (use.rejected == 0 || use.shrank == 0 || use.delivery == 0) {
				t.Fatalf("vacuous heavy-slot scenario: floor use %+v", use)
			}
		})
	}
}

// TestGridParallelRunsAgree runs the same grid-backed scenario on eight
// concurrent goroutines and compares every history to the sequential run —
// independent simulations must not interfere (run under -race in CI).
func TestGridParallelRunsAgree(t *testing.T) {
	sc := diffScenario{name: "par", n: 200, ticks: 100, seed: 21, churn: true,
		model: model.NewUDG(10),
		prims: CD | ACK}
	want := runDiff(t, sc, false)
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = runDiff(t, sc, false)
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d diverged from sequential run:\n%s", w, firstDiffLine(g, want))
		}
	}
}

// threeRadiusModel queries TransmittersWithin at three distinct radii per
// decode candidate. It breaks model.Model's one-frame contract on purpose: a
// listener with two transmitters in the ring between 6 and 10, and none
// nearer, decodes both.
type threeRadiusModel struct{ model.Model }

func (m threeRadiusModel) Decodes(view model.View, u, v int) bool {
	if view.Dist(u, v) > 10 {
		return false
	}
	a := view.TransmittersWithin(v, 10, u)
	b := view.TransmittersWithin(v, 6, u)
	c := view.TransmittersWithin(v, 3, u)
	return a == 0 || (b == 0 && c == 0)
}

func (m threeRadiusModel) MaxDecodeRange() float64 { return 10 }

// TestThirdRadiusFallback pins the simulator's reception rule, which does not
// rely on the one-frame contract: under a model querying three radii that
// lets a listener decode several transmitters, and an injector dropping
// frames, each listener keeps the frame of the lowest-id decodable
// transmitter the injector kept, and the grid-backed and the brute-scan
// simulation produce the same histories.
func TestThirdRadiusFallback(t *testing.T) {
	sc := diffScenario{n: 150, ticks: 80, seed: 31, inject: true,
		model: threeRadiusModel{model.NewUDG(10)},
		prims: CD}
	var multi int
	grid := runDiffWatch(t, sc, false, checkFrames(t, &multi))
	brute := runDiffWatch(t, sc, true, checkFrames(t, &multi))
	if grid != brute {
		t.Fatalf("three-radius histories diverge:\n%s", firstDiffLine(grid, brute))
	}
	if multi == 0 {
		t.Fatal("vacuous: no listener could decode two transmitters")
	}
}

// firstDiffLine locates the first line where two histories diverge.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  grid:  %q\n  brute: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
