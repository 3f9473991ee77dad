// Package model implements the paper's unified communication model and the
// concrete models it captures: SINR, UDG/UBG, Quasi-UDG, the Protocol model,
// bounded-independence graphs (BIG), and k-hop variants.
//
// The unified rule is SuccClear (Def. 1): a transmission from u is guaranteed
// to reach all of u's neighbours when no other node transmits within the
// exclusion vicinity D(u, ρ_c·R) and the total interference at u is at most
// I_c. Each concrete model supplies its decoding rule (Decodes) plus its
// (ρ_c, I_c) parameters, which the sensing layer uses for ACK thresholds.
package model

import (
	"math"

	"udwn/internal/pathloss"
)

// View is the read-only window a model gets onto the current slot when
// deciding whether a listener decodes a transmitter. The simulator
// implements it with the per-slot interference sums of its field engine.
type View interface {
	// Transmitters returns the ids of nodes transmitting in this slot.
	Transmitters() []int
	// Power returns the received power of w's signal at v (0 for w == v).
	Power(w, v int) float64
	// Dist returns the quasi-distance d(u, v).
	Dist(u, v int) float64
	// TotalPower returns Σ_w Power(w, v) over all transmitters w, summed
	// in ascending w. The simulator sums it up front only for the
	// receivers a slot is known to read (transmitters and listeners inside
	// a decode cutoff or near enough to sense Busy); for any other v it
	// computes the same sum when called, so every caller reads the exact
	// value.
	TotalPower(v int) float64
	// TransmittersWithin returns the number of transmitters w != excluding
	// with d(w, v) <= r. Pass excluding = -1 to count all.
	TransmittersWithin(v int, r float64, excluding int) int
}

// SuccClear holds the clear-channel parameters of a model.
type SuccClear struct {
	// RhoC is the exclusion radius multiplier: success is guaranteed only if
	// no other node in D(u, RhoC·R) transmits. Zero means no geometric
	// exclusion is needed (SINR).
	RhoC float64
	// Ic is the interference bound under which success is guaranteed.
	// math.Inf(1) for pure graph models.
	Ic float64
}

// FieldOblivious is an optional Model extension declaring that Decodes never
// consults View.TotalPower — the slot's aggregated interference field — only
// per-pair powers and distances. When such a model runs without any
// power-sensing primitive (CD, ACK), the simulator skips building the O(n·tx)
// interference field entirely.
type FieldOblivious interface {
	FieldOblivious() bool
}

// Model is a concrete communication model plugged into the simulator.
//
// One frame per listener: Decodes is true for at most one same-channel
// transmitter per listener and slot, and every constructor rejects the
// parameters that would break this. In UDG, UBG and KHop (k ≥ 1), QUDG
// (interference reaches outerR, past every edge), Protocol (interfR ≥
// commR) and BIG (k ≥ 1 hops), a second decodable transmitter lies inside
// the first decode's interference radius. SINR and Rayleigh SINR need β ≥ 1
// and N > 0: a decoded signal exceeds β·(every other term + N), so two
// decodes would need s₁ > s₂ and s₂ > s₁. Rayleigh sums its interference
// directly, so this holds bit for bit in floats; for SINR at β = 1 a double
// decode would need the field sum's rounding error to exceed N. The
// simulator keeps a listener's first frame in ascending transmitter order,
// so every run stays well defined even then.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// R returns the maximum clear-channel communication distance.
	R() float64
	// Params returns the model's SuccClear parameters.
	Params() SuccClear
	// Decodes reports whether listener v (not transmitting) decodes
	// transmitter u in the slot described by view.
	Decodes(view View, u, v int) bool
	// MaxDecodeRange returns a hard geometric cutoff on decoding:
	// Decodes(view, u, v) is guaranteed false whenever d(u, v) >
	// MaxDecodeRange(), for any transmitter set and any interference, at the
	// model's nominal (unit) power scale; +Inf means no cutoff. The
	// simulator uses a finite cutoff to drive reception transmitter-outward
	// from a spatial index — each transmitter only visits listeners inside
	// it — so the bound must be exact, not approximate: for graph-style
	// models it is the defining connectivity radius, and for SINR-style
	// models it is the distance at which the bare signal drops to the
	// decode threshold over noise alone (beyond it the ratio test cannot
	// succeed even with zero interference). Power-scaled transmissions
	// extend the cutoff by scale^{1/ζ}, which the simulator applies on top.
	MaxDecodeRange() float64
	// CommRadius returns the dissemination neighbourhood radius R_B for
	// precision eps: (1−eps)·R for fading models, whose maximum range is
	// only achievable on a perfectly clear channel, and R for graph models,
	// whose neighbourhoods are exact. CommRadius(eps) ≤ MaxDecodeRange() for
	// every eps in (0,1), so the simulator's reception walk, which decides
	// delivery within R_B too, is no wider than the decode cutoff for an
	// unattenuated transmission. Correctness does not depend on the bound.
	CommRadius(eps float64) float64
}

// ClearIc returns the SINR-model interference bound of App. B:
// I_c = min{β, (1−ε)^{−ζ} − 1}·N / 2^ζ.
func ClearIc(eps, beta, noise, zeta float64) float64 {
	m := math.Min(beta, math.Pow(1-eps, -zeta)-1)
	return m * noise / math.Pow(2, zeta)
}

// SINR is the physical (fading) model: v decodes u iff
// P/d(u,v)^ζ > β·(Σ_{w≠u} P/d(w,v)^ζ + N).
type SINR struct {
	beta  float64
	noise float64
	r     float64
	ic    float64
}

var _ Model = (*SINR)(nil)

// NewSINR builds a SINR model from physical parameters. eps is the precision
// parameter used to derive I_c. It panics unless p, noise and zeta are
// positive and beta >= 1 (the one-frame contract of Model), NaN included.
func NewSINR(p, beta, noise, zeta, eps float64) *SINR {
	if !(p > 0) || !(beta >= 1) || !(noise > 0) || !(zeta > 0) {
		panic("model: SINR needs p, noise, zeta > 0 and beta >= 1")
	}
	return &SINR{
		beta:  beta,
		noise: noise,
		r:     pathloss.SINRRange(p, beta, noise, zeta),
		ic:    ClearIc(eps, beta, noise, zeta),
	}
}

// Name returns "sinr".
func (s *SINR) Name() string { return "sinr" }

// R returns (P/(βN))^{1/ζ}.
func (s *SINR) R() float64 { return s.r }

// Beta returns the SINR threshold.
func (s *SINR) Beta() float64 { return s.beta }

// Noise returns the ambient noise level.
func (s *SINR) Noise() float64 { return s.noise }

// Params returns ρ_c = 0 and the App. B interference bound.
func (s *SINR) Params() SuccClear { return SuccClear{RhoC: 0, Ic: s.ic} }

// CommRadius returns (1−eps)·R.
func (s *SINR) CommRadius(eps float64) float64 { return (1 - eps) * s.r }

// MaxDecodeRange returns R: at d > R the bare signal P/d^ζ is already below
// β·N, so the SINR inequality fails even with zero interference.
func (s *SINR) MaxDecodeRange() float64 { return s.r }

// Decodes applies the SINR inequality with cumulative interference.
func (s *SINR) Decodes(view View, u, v int) bool {
	sig := view.Power(u, v)
	if sig <= 0 {
		return false
	}
	interference := view.TotalPower(v) - sig
	if interference < 0 {
		interference = 0
	}
	return sig > s.beta*(interference+s.noise)
}

// UDG is the unit-disc / unit-ball graph radio model: v decodes u iff
// d(u,v) <= R and no other transmitter is within the interference radius of
// v. With interference radius R this is the classical radio-network rule;
// over a non-Euclidean space the same type serves as the UBG model.
type UDG struct {
	name    string
	commR   float64
	interfR float64
}

var _ Model = (*UDG)(nil)

// NewUDG returns a UDG model with communication and interference radius r.
// It panics unless r > 0.
func NewUDG(r float64) *UDG { return newUDG("udg", r, 1) }

// NewUBG returns the unit-ball-graph variant (identical rule, reported under
// its own name; the difference is the space it is used over). It panics
// unless r > 0.
func NewUBG(r float64) *UDG { return newUDG("ubg", r, 1) }

// NewKHop returns a k-hop interference variant: communication radius r,
// interference radius k·r (k > 1 extends ρ_c as in App. B). It panics
// unless r > 0 and k >= 1: a smaller interference radius would let one
// listener decode two transmitters in one slot.
func NewKHop(r float64, k float64) *UDG { return newUDG("khop", r, k) }

// newUDG panics on r ≤ 0, on a NaN r, under which Decodes would accept any
// distance, and on a NaN k or k < 1.
func newUDG(name string, r, k float64) *UDG {
	if !(r > 0) || !(k >= 1) {
		panic("model: " + name + " needs r > 0 and k >= 1")
	}
	return &UDG{name: name, commR: r, interfR: k * r}
}

// Name returns the model name.
func (m *UDG) Name() string { return m.name }

// R returns the communication radius.
func (m *UDG) R() float64 { return m.commR }

// Params returns ρ_c = (R + R_I)/R and I_c = ∞ per App. B.
func (m *UDG) Params() SuccClear {
	return SuccClear{RhoC: (m.commR + m.interfR) / m.commR, Ic: math.Inf(1)}
}

// CommRadius returns R: graph neighbourhoods are exact.
func (m *UDG) CommRadius(float64) float64 { return m.commR }

// MaxDecodeRange returns the communication radius: Decodes rejects any pair
// beyond it outright.
func (m *UDG) MaxDecodeRange() float64 { return m.commR }

// FieldOblivious reports true: the collision rule never reads TotalPower.
func (m *UDG) FieldOblivious() bool { return true }

// Decodes applies the collision rule.
func (m *UDG) Decodes(view View, u, v int) bool {
	if view.Dist(u, v) > m.commR {
		return false
	}
	return view.TransmittersWithin(v, m.interfR, u) == 0
}

// QUDG is the quasi-unit-disc model: pairs within innerR are always
// connected, pairs beyond outerR never, and the grey zone in between is
// decided by an adversarially fixed (here: deterministic per pair) rule.
// Grey-zone nodes always cause interference regardless of connectivity.
type QUDG struct {
	innerR float64
	outerR float64
	// greyEdge decides connectivity of a grey-zone pair; nil means the
	// pessimistic adversary (no grey edges).
	greyEdge func(dist float64) bool
}

var _ Model = (*QUDG)(nil)

// NewQUDG returns a QUDG model. greyEdge may be nil for the pessimistic
// adversary. It panics unless 0 < innerR <= outerR, NaN radii included.
func NewQUDG(innerR, outerR float64, greyEdge func(dist float64) bool) *QUDG {
	if !(innerR > 0) || !(outerR >= innerR) {
		panic("model: QUDG needs 0 < innerR <= outerR")
	}
	return &QUDG{innerR: innerR, outerR: outerR, greyEdge: greyEdge}
}

// Name returns "qudg".
func (m *QUDG) Name() string { return "qudg" }

// R returns the inner (guaranteed) radius — the clear-channel communication
// distance of the unified model.
func (m *QUDG) R() float64 { return m.innerR }

// Params returns ρ_c = (R + R')/R over the inner radius, I_c = ∞.
func (m *QUDG) Params() SuccClear {
	return SuccClear{RhoC: (m.innerR + m.outerR) / m.innerR, Ic: math.Inf(1)}
}

// CommRadius returns the inner radius: guaranteed edges are exact.
func (m *QUDG) CommRadius(float64) float64 { return m.innerR }

// MaxDecodeRange returns the largest distance at which an edge can exist:
// outerR when a grey-zone rule may connect pairs beyond the inner radius,
// innerR under the pessimistic (no grey edges) adversary.
func (m *QUDG) MaxDecodeRange() float64 {
	if m.greyEdge != nil {
		return m.outerR
	}
	return m.innerR
}

// FieldOblivious reports true: the collision rule never reads TotalPower.
func (m *QUDG) FieldOblivious() bool { return true }

// Decodes applies the collision rule over the (possibly grey) edge set,
// with interference out to outerR.
func (m *QUDG) Decodes(view View, u, v int) bool {
	d := view.Dist(u, v)
	connected := d <= m.innerR || (d <= m.outerR && m.greyEdge != nil && m.greyEdge(d))
	if !connected {
		return false
	}
	return view.TransmittersWithin(v, m.outerR, u) == 0
}

// Protocol is the protocol model of Gupta–Kumar: communication radius R and
// a larger interference radius R_I; v decodes u iff d(u,v) <= R and no other
// transmitter w has d(w,v) <= R_I.
type Protocol struct {
	commR   float64
	interfR float64
}

var _ Model = (*Protocol)(nil)

// NewProtocol returns a protocol model. It panics unless
// 0 < commR <= interfR, NaN radii included.
func NewProtocol(commR, interfR float64) *Protocol {
	if !(commR > 0) || !(interfR >= commR) {
		panic("model: Protocol needs 0 < commR <= interfR")
	}
	return &Protocol{commR: commR, interfR: interfR}
}

// Name returns "protocol".
func (m *Protocol) Name() string { return "protocol" }

// R returns the communication radius.
func (m *Protocol) R() float64 { return m.commR }

// Params returns ρ_c = (R + R_I)/R, I_c = ∞ per App. B.
func (m *Protocol) Params() SuccClear {
	return SuccClear{RhoC: (m.commR + m.interfR) / m.commR, Ic: math.Inf(1)}
}

// CommRadius returns R: graph neighbourhoods are exact.
func (m *Protocol) CommRadius(float64) float64 { return m.commR }

// MaxDecodeRange returns the communication radius: Decodes rejects any pair
// beyond it outright.
func (m *Protocol) MaxDecodeRange() float64 { return m.commR }

// FieldOblivious reports true: the protocol rule never reads TotalPower.
func (m *Protocol) FieldOblivious() bool { return true }

// Decodes applies the protocol-model rule.
func (m *Protocol) Decodes(view View, u, v int) bool {
	if view.Dist(u, v) > m.commR {
		return false
	}
	return view.TransmittersWithin(v, m.interfR, u) == 0
}

// BIG is the bounded-independence-graph model: the space is a graph hop
// metric, communication is along edges (distance 1), and interference
// reaches k hops. Its shortest-path metric is (1, λ)-bounded independent by
// the BIG property.
type BIG struct {
	interfHops float64
}

var _ Model = (*BIG)(nil)

// NewBIG returns a BIG model with interference reach k hops (k >= 1).
func NewBIG(k int) *BIG {
	if k < 1 {
		panic("model: BIG interference hops must be >= 1")
	}
	return &BIG{interfHops: float64(k)}
}

// Name returns "big".
func (m *BIG) Name() string { return "big" }

// R returns 1: communication is along graph edges.
func (m *BIG) R() float64 { return 1 }

// Params returns ρ_c = k + 1 (exclusion covers the interference reach),
// I_c = ∞.
func (m *BIG) Params() SuccClear {
	return SuccClear{RhoC: m.interfHops + 1, Ic: math.Inf(1)}
}

// CommRadius returns 1: adjacency is exact.
func (m *BIG) CommRadius(float64) float64 { return 1 }

// MaxDecodeRange returns 1: communication is along graph edges only.
func (m *BIG) MaxDecodeRange() float64 { return 1 }

// FieldOblivious reports true: the radio rule never reads TotalPower.
func (m *BIG) FieldOblivious() bool { return true }

// Decodes applies the radio rule with k-hop interference.
func (m *BIG) Decodes(view View, u, v int) bool {
	if view.Dist(u, v) > 1 {
		return false
	}
	return view.TransmittersWithin(v, m.interfHops, u) == 0
}
