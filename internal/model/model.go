// Package model implements the paper's unified communication model and the
// concrete models it captures: SINR, with or without Rayleigh fading, and one
// collision rule whose radii give UDG/UBG, k-hop, Quasi-UDG, the Protocol
// model and bounded-independence graphs (BIG).
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
	// Tick returns the simulator tick of the slot being decoded, from which
	// Rayleigh fading draws its coefficients.
	Tick() int
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

// Model is a concrete communication model plugged into the simulator.
//
// One frame per listener: Decodes is true for at most one same-channel
// transmitter per listener and slot, and every constructor rejects the
// parameters that would break this. Collision's interference reaches
// interfR, at least as far as every edge, so a second decodable transmitter
// lies inside the first decode's interference radius. SINR and Rayleigh SINR
// need β ≥ 1 and N > 0: a decoded signal exceeds β·(every other term + N), so
// two decodes would need s₁ > s₂ and s₂ > s₁. Rayleigh sums its interference
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
	// DecodeFloor is floorScale·total + floorNoise; both are 0 when the
	// noise is subnormal.
	floorScale float64
	floorNoise float64
}

// decodeMargin is the relative margin by which DecodeFloor sits below
// β(total+N)/(1+β), absorbing the rounding argued in DecodeFloor's comment.
const decodeMargin = 1e-9

var _ Model = (*SINR)(nil)

// NewSINR builds a SINR model from physical parameters. eps is the precision
// parameter used to derive I_c. It panics unless p, noise and zeta are
// positive and beta >= 1 (the one-frame contract of Model), NaN included.
func NewSINR(p, beta, noise, zeta, eps float64) *SINR {
	if !(p > 0) || !(beta >= 1) || !(noise > 0) || !(zeta > 0) {
		panic("model: SINR needs p, noise, zeta > 0 and beta >= 1")
	}
	s := &SINR{
		beta:  beta,
		noise: noise,
		r:     pathloss.SINRRange(p, beta, noise, zeta),
		ic:    ClearIc(eps, beta, noise, zeta),
	}
	if noise >= 0x1p-1022 { // a normal float; see DecodeFloor
		s.floorScale = beta / (1 + beta) * (1 - decodeMargin)
		s.floorNoise = s.floorScale * noise
	}
	return s
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

// DecodeFloor returns the power a signal must exceed to decode at a listener
// whose interference sum reads total: Decodes(view, u, v) implies
// view.Power(u, v) > DecodeFloor(view.TotalPower(v)), and DecodeFloor is
// non-decreasing in total. It is the decode test sig > β·(total − sig + N)
// solved for sig, β(total+N)/(1+β), lowered by the relative margin
// decodeMargin, so a caller holding a listener's sum can reject a hopeless
// pair without asking Decodes.
//
// The margin absorbs rounding. Write ε = 2⁻⁵³. Over the canonical sum,
// total ≥ sig holds bit for bit, because sig is one of its non-negative
// terms and adding a non-negative term never lowers a float sum, so Decodes'
// clamp does not fire. Its three operations (total − sig, + N, β·) each
// round by a factor within 1 ± ε: N is a normal float and β ≥ 1, so none of
// them underflows, and an overflow yields +Inf, which no signal exceeds. A
// decode therefore means sig > β(total − sig + N)(1−ε)³, that is
// sig > β(total+N)(1−ε)³/(1+β). (A view whose total is below sig is clamped
// to sig > βN(1−ε), and the floor stays below sig there too.) The floor,
// floorScale·total + floorNoise, adds at most seven roundings: four in
// floorScale, one in floorNoise (worth 2ε if it lands below the normal
// range), and one each in the product and the sum, where an underflowing
// floorScale·total errs by less than 2ε of floorNoise. Together they stay
// below a factor 1 + 12ε, far inside 1 − decodeMargin. A subnormal
// N voids these relative bounds, so NewSINR leaves the floor at 0, which
// every decoded signal exceeds. Monotonicity holds because floorScale ≥ 0
// and rounding is monotone.
func (s *SINR) DecodeFloor(total float64) float64 {
	return s.floorScale*total + s.floorNoise
}

// Collision is the unified collision rule of the graph-based models (App.
// B): v decodes u iff u→v is an edge — d(u,v) <= commR, or a grey edge up to
// interfR — and no other transmitter lies within interfR of v. The models
// differ only in their radii and the space they run over:
//
//   - UDG and UBG: commR = interfR = R, over a Euclidean or any other space;
//   - k-hop: interfR = k·R;
//   - quasi-UDG: commR = innerR and interfR = outerR, where pairs in the
//     grey zone between them are connected by an adversarially fixed
//     (here: deterministic per distance) rule, and interfere either way;
//   - the Protocol model of Gupta–Kumar: commR = R and interfR = R_I;
//   - BIG: commR = 1 and interfR = k over the hop metric of a
//     bounded-independence graph, which is (1, λ)-bounded independent.
type Collision struct {
	name    string
	commR   float64
	interfR float64
	// greyEdge decides connectivity of a pair in (commR, interfR]; nil means
	// the pessimistic adversary (no grey edges).
	greyEdge func(dist float64) bool
}

var _ Model = (*Collision)(nil)

// NewUDG returns the unit-disc-graph model with communication and
// interference radius r. It panics unless r > 0.
func NewUDG(r float64) *Collision { return newCollision("udg", r, r, nil) }

// NewUBG returns the unit-ball-graph variant: the UDG rule reported under its
// own name, for use over a non-Euclidean space. It panics unless r > 0.
func NewUBG(r float64) *Collision { return newCollision("ubg", r, r, nil) }

// NewKHop returns a k-hop interference variant: communication radius r,
// interference radius k·r (k > 1 extends ρ_c as in App. B). It panics
// unless r > 0 and k >= 1.
func NewKHop(r float64, k float64) *Collision { return newCollision("khop", r, k*r, nil) }

// NewQUDG returns the quasi-unit-disc model: pairs within innerR are always
// connected, pairs beyond outerR never, and greyEdge decides the grey zone in
// between (nil for the pessimistic adversary). It panics unless
// 0 < innerR <= outerR.
func NewQUDG(innerR, outerR float64, greyEdge func(dist float64) bool) *Collision {
	return newCollision("qudg", innerR, outerR, greyEdge)
}

// NewProtocol returns the protocol model with communication radius commR and
// interference radius interfR. It panics unless 0 < commR <= interfR.
func NewProtocol(commR, interfR float64) *Collision {
	return newCollision("protocol", commR, interfR, nil)
}

// NewBIG returns the bounded-independence-graph model: communication along
// graph edges (distance 1), interference reaching k hops. It panics unless
// k >= 1.
func NewBIG(k int) *Collision { return newCollision("big", 1, float64(k), nil) }

// newCollision panics unless 0 < commR <= interfR, NaN radii included: a NaN
// radius would accept any distance, and interfR < commR would let one
// listener decode two transmitters in one slot.
func newCollision(name string, commR, interfR float64, greyEdge func(float64) bool) *Collision {
	if !(commR > 0) || !(interfR >= commR) {
		panic("model: " + name + " needs 0 < communication radius <= interference radius")
	}
	return &Collision{name: name, commR: commR, interfR: interfR, greyEdge: greyEdge}
}

// Name returns the model name.
func (m *Collision) Name() string { return m.name }

// R returns the communication radius, the clear-channel communication
// distance of the unified model.
func (m *Collision) R() float64 { return m.commR }

// Params returns ρ_c = (R + R_I)/R and I_c = ∞ per App. B.
func (m *Collision) Params() SuccClear {
	return SuccClear{RhoC: (m.commR + m.interfR) / m.commR, Ic: math.Inf(1)}
}

// CommRadius returns the communication radius: guaranteed edges are exact.
func (m *Collision) CommRadius(float64) float64 { return m.commR }

// MaxDecodeRange returns the largest distance at which an edge can exist:
// interfR when a grey-zone rule may connect pairs beyond commR, commR
// otherwise.
func (m *Collision) MaxDecodeRange() float64 {
	if m.greyEdge != nil {
		return m.interfR
	}
	return m.commR
}

// Decodes applies the collision rule.
func (m *Collision) Decodes(view View, u, v int) bool {
	d := view.Dist(u, v)
	if !(d <= m.commR || d <= m.interfR && m.greyEdge != nil && m.greyEdge(d)) {
		return false
	}
	return view.TransmittersWithin(v, m.interfR, u) == 0
}
