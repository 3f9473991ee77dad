// Package pathloss turns a quasi-metric space into a received-power field.
//
// The paper defines the signal strength of transmitter u at node v as
// I_uv = P / f(u,v), where f is the path loss, and the quasi-distance as
// d(u,v) = f(u,v)^{1/ζ}. Equivalently, received power is P / d(u,v)^ζ.
// All carrier-sensing primitives (App. B) are defined over this field, for
// graph-based models as well as SINR, because the nodes are embedded in the
// quasi-metric in every model the framework captures.
package pathloss

import (
	"math"

	"udwn/internal/metric"
	"udwn/internal/rng"
)

// Field computes received power between nodes of a quasi-metric space.
type Field struct {
	space metric.Space
	p     float64
	zeta  float64

	// cache holds the dense n×n power matrix when the space is small enough
	// to afford it; nil otherwise. Entry u*n+v is Power(u, v).
	cache []float64
	n     int

	intZeta int // ζ as an integer exponent, 0 if ζ is not integral

	// euclid is the space as a *metric.Euclidean when ζ = 3, for the inline
	// row kernel (fillRow); nil otherwise.
	euclid *metric.Euclidean
}

// dMin clamps distances from below to avoid infinite near-field power.
const dMin = 1e-3

// maxCacheNodes bounds the size of the precomputed power matrix; spaces with
// more nodes compute powers on the fly.
const maxCacheNodes = 2048

// Options configures a Field.
type Options struct {
	// Dynamic marks the space as mutable (mobility); the power cache is
	// disabled so queries always reflect current distances.
	Dynamic bool
}

// NewField returns a power field with transmit power p over space, using
// exponent zeta. It panics unless p > 0 and zeta > 0 (programming errors).
func NewField(space metric.Space, p, zeta float64, opts Options) *Field {
	if !(p > 0) {
		panic("pathloss: power must be positive")
	}
	if !(zeta > 0) {
		panic("pathloss: zeta must be positive")
	}
	f := &Field{
		space: space,
		p:     p,
		zeta:  zeta,
		n:     space.Len(),
	}
	if iz := int(zeta); float64(iz) == zeta && iz >= 1 && iz <= 8 {
		f.intZeta = iz
	}
	if e, ok := space.(*metric.Euclidean); ok && f.intZeta == 3 {
		f.euclid = e
	}
	if !opts.Dynamic && f.n <= maxCacheNodes {
		f.cache = make([]float64, f.n*f.n)
		for u := 0; u < f.n; u++ {
			f.fillRow(u, f.cache[u*f.n:(u+1)*f.n])
		}
	}
	return f
}

// fillRow is the row kernel: it writes Power(u, v) into row[v] for every v,
// the zero diagonal included. Over a Euclidean space with ζ = 3, the
// default exponent, it evaluates compute's expression — the distance, the
// dMin clamp, the product d·d·d — in the loop body, so each entry is
// bit-identical to compute(u, v) without an interface call per term. It
// skips compute's unreachable test: a Euclidean distance at or past
// metric.Unreachable can only be +Inf (a finite one stays below
// √MaxFloat64), and p/+Inf is already 0. The power law stays inline,
// because the same loop through a per-term helper call ran no faster than
// compute. Any other space or exponent calls compute per term.
func (f *Field) fillRow(u int, row []float64) {
	e := f.euclid
	if e == nil {
		for v := range row {
			row[v] = f.compute(u, v)
		}
		row[u] = 0
		return
	}
	p := f.p
	pu := e.Point(u)
	for v := range row {
		d := pu.Dist(e.Point(v))
		if d < dMin {
			d = dMin
		}
		row[v] = p / (d * d * d)
	}
	row[u] = 0
}

func (f *Field) compute(u, v int) float64 {
	d := f.space.Dist(u, v)
	if d >= metric.Unreachable {
		return 0
	}
	if d < dMin {
		d = dMin
	}
	return f.p / powN(d, f.zeta, f.intZeta)
}

// powN raises d to the zeta power, using repeated multiplication for small
// integral exponents (the hot path) and math.Pow otherwise.
func powN(d, zeta float64, intZeta int) float64 {
	if intZeta > 0 {
		r := d
		for i := 1; i < intZeta; i++ {
			r *= d
		}
		return r
	}
	return math.Pow(d, zeta)
}

// P returns the uniform transmit power.
func (f *Field) P() float64 { return f.p }

// Zeta returns the path-loss exponent.
func (f *Field) Zeta() float64 { return f.zeta }

// Space returns the underlying quasi-metric space.
func (f *Field) Space() metric.Space { return f.space }

// Len returns the number of nodes.
func (f *Field) Len() int { return f.n }

// Power returns the received power of u's transmission at v; it is 0 for
// u == v and for unreachable pairs.
func (f *Field) Power(u, v int) float64 {
	if u == v {
		return 0
	}
	if f.cache != nil {
		return f.cache[u*f.n+v]
	}
	return f.compute(u, v)
}

// Row returns transmitter u's power row: Row(u, buf)[v] == Power(u, v) for
// every v, including the zero diagonal. A cached field returns its cached
// row, which must not be modified, and leaves buf alone. A field that
// computes powers on the fly (dynamic spaces and deployments beyond the
// cache bound) computes the row into buf[:Len()] and returns it.
func (f *Field) Row(u int, buf []float64) []float64 {
	if f.cache != nil {
		return f.cache[u*f.n : (u+1)*f.n]
	}
	buf = buf[:f.n]
	f.fillRow(u, buf)
	return buf
}

// PowerAtDist returns the power received at quasi-distance d.
func (f *Field) PowerAtDist(d float64) float64 {
	if d < dMin {
		d = dMin
	}
	return f.p / powN(d, f.zeta, f.intZeta)
}

// DistForPower returns the quasi-distance at which received power equals pw.
func (f *Field) DistForPower(pw float64) float64 {
	return math.Pow(f.p/pw, 1/f.zeta)
}

// SINRRange returns the maximum clear-channel communication distance in the
// SINR model: R = (P/(βN))^{1/ζ}.
func SINRRange(p, beta, noise, zeta float64) float64 {
	return math.Pow(p/(beta*noise), 1/zeta)
}

// Shadowed wraps a space with deterministic per-pair log-normal shadowing:
// each unordered pair's distance is scaled by exp(σ·Z_uv) with Z_uv a
// standard normal derived from the pair and seed, clamped to ±2σ so the
// perturbed space retains bounded metricity. It models the paper's point
// that real signal decay deviates from clean geometric decay.
type Shadowed struct {
	base  metric.Space
	sigma float64
	seed  uint64
}

var _ metric.Space = (*Shadowed)(nil)

// NewShadowed returns a shadowed view of base with log-scale σ = sigma.
func NewShadowed(base metric.Space, sigma float64, seed uint64) *Shadowed {
	return &Shadowed{base: base, sigma: sigma, seed: seed}
}

// Len returns the number of nodes.
func (s *Shadowed) Len() int { return s.base.Len() }

// Dist returns the shadowed distance. Shadowing is symmetric per pair.
func (s *Shadowed) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	d := s.base.Dist(u, v)
	if d >= metric.Unreachable {
		return d
	}
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	// One splitmix draw per pair keeps this deterministic and cheap.
	z := rng.New(s.seed ^ uint64(a)<<32 ^ uint64(b)).Norm()
	if z > 2 {
		z = 2
	} else if z < -2 {
		z = -2
	}
	return d * math.Exp(s.sigma*z)
}
