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
		act.Channel = n.RNG.Intn(d.nchan)
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
		fmt.Fprintf(d.log, " r(%d,%d,%d,%d,%x)", rc.From, rc.Msg.Src, rc.Msg.Kind,
			rc.Msg.Data, math.Float64bits(rc.RSS))
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
	model    func(tick func() int) model.Model
	channels int
	scales   bool
	dynamic  bool
	churn    bool
	inject   bool
	prims    Primitives
	// hold is diffProto's action hold period; 0 and 1 draw every act.
	hold int
}

// runDiff builds and runs one simulation for sc and returns its full
// serialized history. disableGrid forces the brute-force scan paths after
// construction (construction itself is shared, so both variants start from
// bit-identical caches).
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
	var sp *Sim
	cfg := Config{
		Space: metric.NewEuclidean(pts),
		Model: sc.model(func() int { return sp.Tick() }),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
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
	}
	if sc.inject {
		cfg.Injector = &diffInjector{seed: sc.seed ^ 0xfa017}
	}
	s, err := New(cfg, func(int) Protocol {
		return &diffProto{p: 0.05, nchan: sc.channels, scales: sc.scales, hold: sc.hold, log: &log}
	})
	if err != nil {
		t.Fatal(err)
	}
	sp = s
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
	// used the index, for reception (injected runs included) and, in dynamic
	// runs, for neighbourhood queries.
	if !disableGrid {
		if got := s.IndexMode(); got != "grid" {
			t.Fatalf("IndexMode = %q, want grid", got)
		}
		st := s.IndexStats()
		if st.TxQueries == 0 {
			t.Fatal("indexed reception path was never exercised")
		}
		if sc.dynamic && st.NeighborQueries == 0 {
			t.Fatal("grid-backed neighbour path was never exercised")
		}
	} else if got := s.IndexMode(); got != "scan" {
		t.Fatalf("IndexMode = %q, want scan", got)
	}
	return log.String()
}

// TestGridScanEquivalence is the differential property test of the spatial
// index: for every scenario the grid-backed simulation must produce the
// byte-identical observable history — receptions, sensing outcomes, slot
// events, RSS bits, per-node outcomes — as the brute-force scan simulation.
func TestGridScanEquivalence(t *testing.T) {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	scenarios := []diffScenario{
		{name: "udg", n: 220, ticks: 120, seed: 1,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK | NTD},
		{name: "sinr", n: 220, ticks: 120, seed: 2,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK},
		{name: "qudg-grey", n: 220, ticks: 120, seed: 3,
			model: func(func() int) model.Model { return model.NewQUDG(7, 11, grey) },
			prims: CD},
		{name: "protocol", n: 220, ticks: 120, seed: 4,
			model: func(func() int) model.Model { return model.NewProtocol(9, 13) },
			prims: FreeAck},
		{name: "rayleigh", n: 180, ticks: 100, seed: 5,
			model: func(tick func() int) model.Model {
				return model.NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 5, tick)
			},
			prims: CD | ACK},
		{name: "channels-3", n: 220, ticks: 120, seed: 6, channels: 3,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD},
		{name: "power-scales", n: 220, ticks: 120, seed: 7, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK},
		{name: "churn", n: 220, ticks: 150, seed: 8, churn: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "mobility", n: 220, ticks: 150, seed: 9, dynamic: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "mobility-sinr-scales", n: 180, ticks: 120, seed: 10, dynamic: true, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK | NTD},
		{name: "faults", n: 220, ticks: 150, seed: 11, inject: true, dynamic: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "faults-sinr-scales", n: 180, ticks: 120, seed: 12, inject: true, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK | NTD},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			grid := runDiff(t, sc, false)
			brute := runDiff(t, sc, true)
			if grid != brute {
				t.Fatalf("grid and brute histories diverge:\n%s", firstDiffLine(grid, brute))
			}
		})
	}
}

// TestGridParallelRunsAgree runs the same grid-backed scenario on eight
// concurrent goroutines and compares every history to the sequential run —
// independent simulations must not interfere (run under -race in CI).
func TestGridParallelRunsAgree(t *testing.T) {
	sc := diffScenario{name: "par", n: 200, ticks: 100, seed: 21, churn: true,
		model: func(func() int) model.Model { return model.NewUDG(10) },
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
// decode candidate.
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

// TestThirdRadiusFallback pins that a model querying three radii gets the
// same histories from the grid-backed and the brute-scan simulation.
func TestThirdRadiusFallback(t *testing.T) {
	sc := diffScenario{n: 150, ticks: 80, seed: 31,
		model: func(func() int) model.Model { return threeRadiusModel{model.NewUDG(10)} },
		prims: CD}
	if grid, brute := runDiff(t, sc, false), runDiff(t, sc, true); grid != brute {
		t.Fatalf("three-radius histories diverge:\n%s", firstDiffLine(grid, brute))
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
