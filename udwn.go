// Package udwn is the public facade of the Unified Dynamic Wireless
// Networks library, a reproduction of "Data Dissemination in Unified Dynamic
// Wireless Networks" (Halldórsson, Tonoyan, Wang, Yu; PODC 2016 / arXiv
// 1605.02474).
//
// The facade bundles a topology, a communication model and the physical
// parameters into a Network, and constructs simulators over it. The
// algorithms live in internal/core (Try&Adjust, LocalBcast, Bcast, Bcast*,
// spontaneous dominating-set broadcast), the models in internal/model
// (SINR, Rayleigh SINR, and the collision rule behind UDG, UBG, QUDG,
// Protocol, BIG and k-hop) and the experiment harness in internal/experiment.
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
	"udwn/internal/model"
	"udwn/internal/sensing"
	"udwn/internal/sim"
)

// PHY holds the physical-layer parameters shared by all models.
//
// The network constructors validate the fields their model reads and panic
// on an invalid one, as the internal/model constructors do; a NaN field is
// invalid wherever it is read. The SINR constructors (NewSINRNetwork,
// NewSINRSpace, NewRayleighNetwork) need Beta >= 1, Noise > 0, Alpha > 0 and
// Range > 0, so that Power() > 0. The collision-rule constructors
// (NewUDGNetwork, NewQUDGNetwork, NewProtocolNetwork) need Range > 0 and
// read no other field at construction; NewBIGNetwork reads none. DefaultPHY
// is valid for every constructor.
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

// NewSINRNetwork builds an SINR network over Euclidean points. It panics
// unless phy.Beta >= 1 and phy.Noise, phy.Alpha and phy.Range are positive
// (see PHY).
func NewSINRNetwork(pts []geom.Point, phy PHY) *Network {
	return NewSINRSpace(metric.NewEuclidean(pts), phy)
}

// NewSINRSpace builds an SINR network over an arbitrary quasi-metric space
// (e.g. the Theorem 5.3 matrix instance or a shadowed space). It panics
// unless phy.Beta >= 1 and phy.Noise, phy.Alpha and phy.Range are positive
// (see PHY).
func NewSINRSpace(space metric.Space, phy PHY) *Network {
	return &Network{
		Space: space,
		Model: model.NewSINR(phy.Power(), phy.Beta, phy.Noise, phy.Alpha, phy.Eps),
		PHY:   phy,
	}
}

// NewRayleighNetwork builds an SINR network with per-slot Rayleigh fading
// keyed by seed; the fading coefficients redraw every slot. It panics on the
// PHY values NewSINRNetwork rejects.
func NewRayleighNetwork(pts []geom.Point, phy PHY, seed uint64) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewRayleighSINR(phy.Power(), phy.Beta, phy.Noise, phy.Alpha, phy.Eps, seed),
		PHY:   phy,
	}
}

// NewUDGNetwork builds a unit-disc-graph network over Euclidean points with
// communication radius phy.Range. It panics unless phy.Range > 0.
func NewUDGNetwork(pts []geom.Point, phy PHY) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewUDG(phy.Range),
		PHY:   phy,
	}
}

// NewQUDGNetwork builds a quasi-UDG network: guaranteed edges within
// inner·phy.Range, grey zone out to phy.Range decided by greyEdge (nil =
// pessimistic). It panics unless phy.Range > 0 and 0 < inner <= 1.
func NewQUDGNetwork(pts []geom.Point, phy PHY, inner float64, greyEdge func(dist float64) bool) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewQUDG(inner*phy.Range, phy.Range, greyEdge),
		PHY:   phy,
	}
}

// NewProtocolNetwork builds a protocol-model network with interference
// radius interf·phy.Range. It panics unless phy.Range > 0 and interf >= 1.
func NewProtocolNetwork(pts []geom.Point, phy PHY, interf float64) *Network {
	return &Network{
		Space: metric.NewEuclidean(pts),
		Model: model.NewProtocol(phy.Range, interf*phy.Range),
		PHY:   phy,
	}
}

// NewBIGNetwork builds a bounded-independence-graph network over the given
// adjacency lists, with interference reaching k hops. Only phy's sensing
// parameters are used; the hop metric fixes distances. It panics unless
// k >= 1.
func NewBIGNetwork(adj [][]int, k int, phy PHY) *Network {
	return &Network{
		Space: metric.NewGraph(adj),
		Model: model.NewBIG(k),
		PHY:   phy,
	}
}

// SimOptions selects per-run simulator settings: seed, primitives, slots,
// sensing precision (SenseEps 0 → PHY.Eps), clocks, channels, mobility and
// the run's observer, faults, metrics and cancellation. It is sim.Options.
type SimOptions = sim.Options

// NewSim constructs a simulator over the network.
func (nw *Network) NewSim(factory sim.ProtocolFactory, o SimOptions) (*sim.Sim, error) {
	s, err := sim.New(sim.Config{
		Space:     nw.Space,
		Model:     nw.Model,
		P:         nw.PHY.Power(),
		Zeta:      nw.PHY.Alpha,
		Noise:     nw.PHY.Noise,
		Eps:       nw.PHY.Eps,
		BusyScale: nw.PHY.BusyScale,
		AckScale:  nw.PHY.AckScale,
		Options:   o,
	}, factory)
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
