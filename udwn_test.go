package udwn_test

import (
	"math"
	"slices"
	"testing"

	"udwn"
	"udwn/internal/core"
	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

func TestDefaultPHYPower(t *testing.T) {
	phy := udwn.DefaultPHY()
	// P = β·N·R^α must place the SINR range exactly at phy.Range.
	nw := udwn.NewSINRNetwork(workload.UniformDisc(4, 10, 1), phy)
	if got := nw.Model.R(); math.Abs(got-phy.Range) > 1e-9 {
		t.Fatalf("SINR range = %v, want %v", got, phy.Range)
	}
}

func TestNetworkConstructors(t *testing.T) {
	phy := udwn.DefaultPHY()
	pts := workload.UniformDisc(32, 40, 2)
	rb := (1 - phy.Eps) * phy.Range
	nets := map[string]*udwn.Network{
		"sinr":     udwn.NewSINRNetwork(pts, phy),
		"udg":      udwn.NewUDGNetwork(pts, phy),
		"qudg":     udwn.NewQUDGNetwork(pts, phy, 0.7, nil),
		"protocol": udwn.NewProtocolNetwork(pts, phy, 2),
		"big":      udwn.NewBIGNetwork(workload.GeometricGraph(pts, rb), 2, phy),
	}
	for name, nw := range nets {
		if nw.Space == nil || nw.Model == nil {
			t.Fatalf("%s: incomplete network", name)
		}
		if nw.Space.Len() != 32 {
			t.Fatalf("%s: wrong node count", name)
		}
		if nw.CommRadius() <= 0 {
			t.Fatalf("%s: bad comm radius", name)
		}
	}
	if nets["udg"].CommRadius() != phy.Range {
		t.Fatal("UDG comm radius must be R (exact neighbourhoods)")
	}
	if math.Abs(nets["sinr"].CommRadius()-rb) > 1e-9 {
		t.Fatal("SINR comm radius must be (1-ε)R")
	}
}

// TestNetworkConstructorPanics pins the panic conditions PHY documents: each
// invalid value panics in exactly the constructors whose model reads it, and
// DefaultPHY builds every network.
func TestNetworkConstructorPanics(t *testing.T) {
	pts := workload.UniformDisc(8, 20, 1)
	adj := workload.GeometricGraph(pts, 9)
	ctors := map[string]func(udwn.PHY){
		"sinr":       func(p udwn.PHY) { udwn.NewSINRNetwork(pts, p) },
		"sinr-space": func(p udwn.PHY) { udwn.NewSINRSpace(metric.NewEuclidean(pts), p) },
		"rayleigh":   func(p udwn.PHY) { udwn.NewRayleighNetwork(pts, p, 1) },
		"udg":        func(p udwn.PHY) { udwn.NewUDGNetwork(pts, p) },
		"qudg":       func(p udwn.PHY) { udwn.NewQUDGNetwork(pts, p, 0.7, nil) },
		"protocol":   func(p udwn.PHY) { udwn.NewProtocolNetwork(pts, p, 2) },
		"big":        func(p udwn.PHY) { udwn.NewBIGNetwork(adj, 2, p) },
	}
	sinr := []string{"sinr", "sinr-space", "rayleigh"}
	ranged := append([]string{"udg", "qudg", "protocol"}, sinr...)
	nan := math.NaN()
	cases := []struct {
		name   string
		edit   func(*udwn.PHY)
		panics []string
	}{
		{"default", func(*udwn.PHY) {}, nil},
		{"beta<1", func(p *udwn.PHY) { p.Beta = 0.5 }, sinr},
		{"beta=NaN", func(p *udwn.PHY) { p.Beta = nan }, sinr},
		{"noise=0", func(p *udwn.PHY) { p.Noise = 0 }, sinr},
		{"noise<0", func(p *udwn.PHY) { p.Noise = -1 }, sinr},
		{"noise=NaN", func(p *udwn.PHY) { p.Noise = nan }, sinr},
		{"alpha=0", func(p *udwn.PHY) { p.Alpha = 0 }, sinr},
		{"alpha=NaN", func(p *udwn.PHY) { p.Alpha = nan }, sinr},
		{"range=0", func(p *udwn.PHY) { p.Range = 0 }, ranged},
		{"range<0", func(p *udwn.PHY) { p.Range = -10 }, ranged},
		{"range=NaN", func(p *udwn.PHY) { p.Range = nan }, ranged},
	}
	for _, tc := range cases {
		phy := udwn.DefaultPHY()
		tc.edit(&phy)
		for name, build := range ctors {
			want := slices.Contains(tc.panics, name)
			got := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				build(phy)
				return false
			}()
			if got != want {
				t.Errorf("%s: %s panicked = %v, want %v", tc.name, name, got, want)
			}
		}
	}
}

func TestNewSimWiresOptions(t *testing.T) {
	phy := udwn.DefaultPHY()
	nw := udwn.NewSINRNetwork(workload.UniformDisc(16, 30, 3), phy)
	s, err := nw.NewSim(func(id int) sim.Protocol {
		return core.NewLocalBcast(16, int64(id))
	}, udwn.SimOptions{Seed: 1, Primitives: sim.CD | sim.ACK})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 16 {
		t.Fatalf("N = %d", s.N())
	}
	// Calibration knobs must have been applied: busy threshold is scaled.
	base := phy.Power() / math.Pow((1-phy.Eps)*phy.Range, phy.Alpha)
	if got := s.Thresholds().BusyRSS; math.Abs(got-phy.BusyScale*base) > 1e-9 {
		t.Fatalf("BusyRSS = %v, want %v", got, phy.BusyScale*base)
	}
}

func TestNewSimErrorPropagates(t *testing.T) {
	phy := udwn.DefaultPHY()
	nw := udwn.NewSINRNetwork(workload.UniformDisc(4, 10, 1), phy)
	if _, err := nw.NewSim(func(int) sim.Protocol { return nil }, udwn.SimOptions{Slots: 99}); err == nil {
		t.Fatal("invalid options must error")
	}
}

func TestNTDThreshold(t *testing.T) {
	phy := udwn.DefaultPHY()
	nw := udwn.NewSINRNetwork(workload.UniformDisc(4, 10, 1), phy)
	full := nw.NTDThreshold(0)
	half := nw.NTDThreshold(phy.Eps / 2)
	if half <= full {
		t.Fatal("ε/2 NTD threshold must demand a stronger signal")
	}
	// Threshold corresponds to distance εR/2: power at that distance.
	want := phy.Power() / math.Pow(phy.Eps*phy.Range/2, phy.Alpha)
	if math.Abs(full-want) > 1e-9 {
		t.Fatalf("NTD threshold = %v, want %v", full, want)
	}
}

// beacon transmits in every slot when true and only listens otherwise.
type beacon bool

func (b beacon) Act(*sim.Node, int) sim.Action          { return sim.Action{Transmit: bool(b)} }
func (beacon) Observe(*sim.Node, int, *sim.Observation) {}

// TestRayleighNetworkFadesEverySlot builds a simulator straight from
// NewRayleighNetwork, with no binding step: the fading redraws every slot, so
// a lone transmitter at 0.95·R reaches its listener in some slots but not
// all.
func TestRayleighNetworkFadesEverySlot(t *testing.T) {
	phy := udwn.DefaultPHY()
	nw := udwn.NewRayleighNetwork([]geom.Point{{X: 0, Y: 0}, {X: 0.95 * phy.Range, Y: 0}}, phy, 99)
	if nw.Model.Name() != "rayleigh" {
		t.Fatal("wrong model")
	}
	const slots = 400
	decoded := 0
	s, err := nw.NewSim(func(id int) sim.Protocol { return beacon(id == 0) }, udwn.SimOptions{
		Seed: 1,
		Observer: func(ev sim.SlotEvent) {
			if ev.Decodes > 0 {
				decoded++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(slots)
	if decoded == 0 || decoded == slots {
		t.Fatalf("listener decoded in %d of %d slots; fading must make it some but not all", decoded, slots)
	}
}

// End-to-end: the README quickstart flow must work through the facade.
func TestFacadeEndToEnd(t *testing.T) {
	const n = 64
	phy := udwn.DefaultPHY()
	rb := (1 - phy.Eps) * phy.Range
	pts := workload.UniformDisc(n, workload.SideForDegree(n, 10, rb), 4)
	nw := udwn.NewSINRNetwork(pts, phy)
	s, err := nw.NewSim(func(id int) sim.Protocol {
		return core.NewLocalBcast(n, int64(id))
	}, udwn.SimOptions{Seed: 5, Primitives: sim.CD | sim.ACK})
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
	}, 20000)
	if !ok {
		t.Fatal("facade end-to-end local broadcast failed")
	}
}
