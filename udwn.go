// Package udwn is the public facade of the Unified Dynamic Wireless
// Networks library, a reproduction of "Data Dissemination in Unified Dynamic
// Wireless Networks" (Halldórsson, Tonoyan, Wang, Yu; PODC 2016 / arXiv
// 1605.02474).
//
// The facade bundles a topology, a communication model and the physical
// parameters into a Network, and constructs simulators over it. The
// algorithms live in internal/core (Try&Adjust, LocalBcast, Bcast, Bcast*,
// spontaneous dominating-set broadcast), the models in internal/model
// (SINR, UDG, UBG, QUDG, Protocol, BIG, k-hop) and the experiment harness in
// internal/experiment.
//
// A minimal local-broadcast run:
//
//	pts := workload.UniformDisc(256, 120, 1)
//	nw := udwn.NewSINRNetwork(pts, udwn.DefaultPHY())
//	s, err := nw.NewSim(func(id int) sim.Protocol {
//	    return core.NewLocalBcast(256, int64(id))
//	}, udwn.SimOptions{Seed: 7, Primitives: sim.CD | sim.ACK})
//	...
//	s.RunUntil(func(s *sim.Sim) bool { return allDelivered(s) }, 10000)
package udwn

import (
	"fmt"
	"math"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/metrics"
	"udwn/internal/model"
	"udwn/internal/sensing"
	"udwn/internal/sim"
)

// PHY holds the physical-layer parameters shared by all models.
type PHY struct {
	// Alpha is the path-loss exponent, which is also the metricity ζ of the
	// derived quasi-metric.
	Alpha float64
	// Beta is the SINR decoding threshold.
	Beta float64
	// Noise is the ambient noise level.
	Noise float64
	// Range is the maximum clear-channel communication distance R; the
	// transmit power is derived as P = β·N·R^α.
	Range float64
	// Eps is the precision parameter ε (R_B = (1−ε)·R in fading models).
	Eps float64
	// BusyScale calibrates the CD busy threshold (see sim.Config).
	BusyScale float64
	// AckScale calibrates the ACK threshold (see sim.Config).
	AckScale float64
}

// DefaultPHY returns the calibrated defaults used throughout the
// experiments: α = ζ = 3, β = 1.5, N = 1, R = 10, ε = 0.1.
func DefaultPHY() PHY {
	return PHY{
		Alpha:     3,
		Beta:      1.5,
		Noise:     1,
		Range:     10,
		Eps:       0.1,
		BusyScale: 0.25,
		AckScale:  8,
	}
}

// Power returns the uniform transmit power P = β·N·R^α.
func (p PHY) Power() float64 {
	return p.Beta * p.Noise * math.Pow(p.Range, p.Alpha)
}

// Network bundles a quasi-metric topology, a communication model and the
// physical parameters.
type Network struct {
	// Space is the quasi-metric the nodes live in.
	Space metric.Space
	// Model resolves receptions.
	Model model.Model
	// PHY holds the physical parameters.
	PHY PHY
}

// NewSINRNetwork builds an SINR network over Euclidean points.
func NewSINRNetwork(pts []geom.Point, phy PHY) *Network {
	return NewSINRSpace(metric.NewEuclidean(pts), phy)
}

// NewSINRSpace builds an SINR network over an arbitrary quasi-metric space
// (e.g. the Theorem 5.3 matrix instance or a shadowed space).
func NewSINRSpace(space metric.Space, phy PHY) *Network {
	return &Network{
		Space: space,
		Model: model.NewSINR(phy.Power(), phy.Beta, phy.Noise, phy.Alpha, phy.Eps),
		PHY:   phy,
	}
}

// TickSource supplies the current simulator tick to models that redraw
// per-slot state (Rayleigh fading). Bind it to the simulator after
// construction.
type TickSource struct {
	s *sim.Sim
}

// Bind attaches the source to a simulator.
func (t *TickSource) Bind(s *sim.Sim) { t.s = s }

// Tick returns the simulator's current tick, or 0 before binding.
func (t *TickSource) Tick() int {
	if t.s == nil {
		return 0
	}
	return t.s.Tick()
}

// NewRayleighNetwork builds an SINR network with per-slot Rayleigh fading.
// After constructing the simulator, bind the returned TickSource to it so
// fading coefficients redraw every slot:
//
//	nw, ts := udwn.NewRayleighNetwork(pts, phy, 7)
//	s, _ := nw.NewSim(factory, opts)
//	ts.Bind(s)
func NewRayleighNetwork(pts []geom.Point, phy PHY, seed uint64) (*Network, *TickSource) {
	ts := &TickSource{}
	nw := &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewRayleighSINR(phy.Power(), phy.Beta, phy.Noise, phy.Alpha, phy.Eps,
			seed, ts.Tick),
		PHY: phy,
	}
	return nw, ts
}

// NewUDGNetwork builds a unit-disc-graph network over Euclidean points with
// communication radius phy.Range.
func NewUDGNetwork(pts []geom.Point, phy PHY) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewUDG(phy.Range),
		PHY:   phy,
	}
}

// NewQUDGNetwork builds a quasi-UDG network: guaranteed edges within
// inner·phy.Range, grey zone out to phy.Range decided by greyEdge (nil =
// pessimistic).
func NewQUDGNetwork(pts []geom.Point, phy PHY, inner float64, greyEdge func(dist float64) bool) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewQUDG(inner*phy.Range, phy.Range, greyEdge),
		PHY:   phy,
	}
}

// NewProtocolNetwork builds a protocol-model network with interference
// radius interf·phy.Range.
func NewProtocolNetwork(pts []geom.Point, phy PHY, interf float64) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewProtocol(phy.Range, interf*phy.Range),
		PHY:   phy,
	}
}

// NewBIGNetwork builds a bounded-independence-graph network over the given
// adjacency lists, with interference reaching k hops. Only phy's sensing
// parameters are used; the hop metric fixes distances.
func NewBIGNetwork(adj [][]int, k int, phy PHY) *Network {
	return &Network{
		Space: metric.NewGraph(adj),
		Model: model.NewBIG(k),
		PHY:   phy,
	}
}

// SimOptions selects per-run simulator settings.
type SimOptions struct {
	// Seed keys all randomness of the run.
	Seed uint64
	// Slots per round (0 → 1). Bcast requires 2.
	Slots int
	// Async enables locally-synchronous clocks.
	Async bool
	// SenseEps overrides the primitive precision (0 → PHY.Eps). Bcast uses
	// PHY.Eps/2.
	SenseEps float64
	// Primitives grants sensing primitives.
	Primitives sim.Primitives
	// Dynamic marks the space mutable (mobility).
	Dynamic bool
	// Adversary resolves under-specified outcomes (nil → pessimistic).
	Adversary sim.Adversary
	// Channels is the number of orthogonal frequency channels (0 → 1).
	Channels int
	// TrackCoverage enables cumulative coverage accounting.
	TrackCoverage bool
	// Observer, when non-nil, is invoked after every resolved slot with a
	// summary event; wire a trace recorder's Record method here (see
	// internal/trace). The event's slices alias simulator scratch buffers
	// and are only valid during the call.
	Observer func(ev sim.SlotEvent)
	// Injector hooks deterministic fault injection into the tick loop
	// (crash schedules, jammers, sensing corruption; see internal/faults).
	Injector sim.Injector
	// Metrics, when non-nil, receives per-slot simulator instrumentation
	// under the "sim/" name prefix. One registry may be shared across runs;
	// its commutative counters merge deterministically.
	Metrics *metrics.Registry
	// IndexMetrics additionally registers the "sim/index/*" spatial-index
	// and "sim/field/*" field-engine work counters with Metrics (off
	// by default to keep existing snapshot instrument sets stable).
	IndexMetrics bool
	// Cancel, when non-nil, is polled at the top of every simulation step;
	// once it reports true the step panics with a sim.Cancelled sentinel,
	// cooperatively stopping the run (the experiment grid installs this
	// from its per-cell contexts and recovers the sentinel).
	Cancel func() bool
}

// NewSim constructs a simulator over the network.
func (nw *Network) NewSim(factory sim.ProtocolFactory, o SimOptions) (*sim.Sim, error) {
	cfg := sim.Config{
		Space:         nw.Space,
		Model:         nw.Model,
		P:             nw.PHY.Power(),
		Zeta:          nw.PHY.Alpha,
		Noise:         nw.PHY.Noise,
		Eps:           nw.PHY.Eps,
		SenseEps:      o.SenseEps,
		Slots:         o.Slots,
		Async:         o.Async,
		Seed:          o.Seed,
		Primitives:    o.Primitives,
		Adversary:     o.Adversary,
		Dynamic:       o.Dynamic,
		BusyScale:     nw.PHY.BusyScale,
		AckScale:      nw.PHY.AckScale,
		Channels:      o.Channels,
		TrackCoverage: o.TrackCoverage,
		Observer:      o.Observer,
		Injector:      o.Injector,
		Metrics:       o.Metrics,
		IndexMetrics:  o.IndexMetrics,
		Cancel:        o.Cancel,
	}
	s, err := sim.New(cfg, factory)
	if err != nil {
		return nil, fmt.Errorf("udwn: new sim: %w", err)
	}
	return s, nil
}

// NTDThreshold returns the near-transmission RSS threshold at the given
// sensing precision (0 → PHY.Eps), as needed by the spontaneous broadcast
// protocol to classify receipts.
func (nw *Network) NTDThreshold(senseEps float64) float64 {
	if senseEps == 0 {
		senseEps = nw.PHY.Eps
	}
	th := sensing.NewThresholds(nw.PHY.Power(), nw.PHY.Alpha, senseEps,
		nw.Model.R(), nw.Model.Params())
	return th.NTDRSS
}

// CommRadius returns the dissemination neighbourhood radius R_B of the
// network's model at precision PHY.Eps.
func (nw *Network) CommRadius() float64 { return nw.Model.CommRadius(nw.PHY.Eps) }
