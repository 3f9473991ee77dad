package model

import (
	"math"

	"udwn/internal/rng"
)

// RayleighSINR is the SINR model under Rayleigh (multipath) fading: every
// transmission's received power is scaled by an independent per-(slot,
// sender, receiver) exponential fading coefficient of unit mean. This
// realises the paper's remark that clean geometric decay "is equally at odds
// with experimental evidence": signal strengths fluctuate slot to slot, so
// the edge set of the communication graph effectively changes every round —
// exactly the unpredictable dynamic behaviour the unified model allows the
// adversary to inject.
//
// The carrier-sense primitives still operate on the deterministic mean
// field (hardware averages RSS over the slot); only the decode rule is
// faded. SuccClear remains sound on average: the guarantee becomes
// probabilistic, which the adversarial-region semantics of Def. 1 permit.
type RayleighSINR struct {
	base *SINR
	seed uint64
	tick func() int
	zeta float64
}

var _ Model = (*RayleighSINR)(nil)

// fadeClamp is the upper clamp on the uniform draw behind the exponential
// fading coefficient; it bounds the coefficient at -log(1-fadeClamp), which
// in turn bounds the maximum decode distance (see MaxDecodeRange).
const fadeClamp = 0.999999

// NewRayleighSINR wraps the SINR parameters with Rayleigh fading. tick must
// report the simulator's current tick so coefficients redraw every slot; it
// is typically bound to (*sim.Sim).Tick.
func NewRayleighSINR(p, beta, noise, zeta, eps float64, seed uint64, tick func() int) *RayleighSINR {
	if tick == nil {
		panic("model: RayleighSINR needs a tick source")
	}
	return &RayleighSINR{base: NewSINR(p, beta, noise, zeta, eps), seed: seed, tick: tick, zeta: zeta}
}

// Name returns "rayleigh".
func (m *RayleighSINR) Name() string { return "rayleigh" }

// R returns the mean-field clear-channel range.
func (m *RayleighSINR) R() float64 { return m.base.R() }

// Params returns the underlying SINR SuccClear parameters.
func (m *RayleighSINR) Params() SuccClear { return m.base.Params() }

// CommRadius returns the mean-field (1−eps)·R.
func (m *RayleighSINR) CommRadius(eps float64) float64 { return m.base.CommRadius(eps) }

// MaxDecodeRange returns the largest distance any faded transmission can be
// decoded from: the fading coefficient is clamped at -log(1-fadeClamp), so
// beyond maxFade^{1/ζ}·R even a maximally lucky draw leaves the signal below
// β·N and the ratio test cannot succeed.
func (m *RayleighSINR) MaxDecodeRange() float64 {
	maxFade := -math.Log(1 - fadeClamp)
	return m.base.R() * math.Pow(maxFade, 1/m.zeta)
}

// FieldOblivious reports true: Decodes accumulates its own faded
// interference from per-pair powers and never reads View.TotalPower.
func (m *RayleighSINR) FieldOblivious() bool { return true }

// fade returns the exponential fading coefficient for (tick, w, v),
// deterministic per run for replayability.
func (m *RayleighSINR) fade(tick, w, v int) float64 {
	r := rng.New(m.seed ^ uint64(tick)<<40 ^ uint64(w)<<20 ^ uint64(v))
	// Exponential with unit mean; clamp away from 0 to avoid -Inf logs.
	u := r.Float64()
	if u > fadeClamp {
		u = fadeClamp
	}
	return -math.Log(1 - u)
}

// Decodes applies the SINR inequality with faded signal and interference.
func (m *RayleighSINR) Decodes(view View, u, v int) bool {
	tick := m.tick()
	sig := view.Power(u, v) * m.fade(tick, u, v)
	if sig <= 0 {
		return false
	}
	interference := 0.0
	for _, w := range view.Transmitters() {
		if w == u || w == v {
			continue
		}
		interference += view.Power(w, v) * m.fade(tick, w, v)
	}
	return sig > m.base.Beta()*(interference+m.base.Noise())
}
