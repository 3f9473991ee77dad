// Package dynamics drives the adversarial network changes of the paper's
// model: node churn (arrivals and departures, unlimited in rate) and edge
// changes (signal-strength / distance changes, rate limited by the constant
// τ per neighbourhood). Drivers mutate a sim.Sim between steps; the
// experiment loop calls Apply before each Step.
package dynamics

import (
	"math"

	"udwn/internal/metric"
	"udwn/internal/rng"
	"udwn/internal/sim"
)

// Driver mutates the network before a tick.
type Driver interface {
	// Apply performs this tick's changes on s. tick is the upcoming tick
	// index.
	Apply(s *sim.Sim, tick int)
}

// Compose returns a driver applying each of the given drivers in order.
func Compose(drivers ...Driver) Driver { return composite(drivers) }

type composite []Driver

func (c composite) Apply(s *sim.Sim, tick int) {
	for _, d := range c {
		d.Apply(s, tick)
	}
}

// Run steps the simulation for ticks ticks, applying the driver before each
// step. A nil driver is allowed.
func Run(s *sim.Sim, d Driver, ticks int) {
	for i := 0; i < ticks; i++ {
		if d != nil {
			d.Apply(s, s.Tick())
		}
		s.Step()
	}
}

// RunUntil steps until pred holds after a tick or maxTicks elapse, applying
// the driver before each step. It returns ticks executed and success.
func RunUntil(s *sim.Sim, d Driver, pred func(*sim.Sim) bool, maxTicks int) (int, bool) {
	for i := 0; i < maxTicks; i++ {
		if d != nil {
			d.Apply(s, s.Tick())
		}
		s.Step()
		if pred(s) {
			return i + 1, true
		}
	}
	return maxTicks, false
}

// PoissonChurn kills each alive node with probability DeathProb and revives
// each dead node with probability BirthProb, independently per tick. Nodes
// in Protect are never killed (e.g. a broadcast source or measured victim).
type PoissonChurn struct {
	DeathProb float64
	BirthProb float64
	Protect   map[int]bool
	rng       *rng.Source
}

var _ Driver = (*PoissonChurn)(nil)

// NewPoissonChurn returns a churn driver with symmetric death/birth rate.
func NewPoissonChurn(rate float64, seed uint64) *PoissonChurn {
	return &PoissonChurn{DeathProb: rate, BirthProb: rate, rng: rng.New(seed)}
}

// Apply performs one tick of churn.
func (c *PoissonChurn) Apply(s *sim.Sim, tick int) {
	for v := 0; v < s.N(); v++ {
		if s.Alive(v) {
			if !c.Protect[v] && c.rng.Bernoulli(c.DeathProb) {
				s.Kill(v)
			}
		} else if c.rng.Bernoulli(c.BirthProb) {
			s.Revive(v)
		}
	}
}

// BurstChurn kills a fraction of alive nodes every Period ticks and revives
// them one period later, modelling correlated failures (e.g. a moving
// obstruction).
type BurstChurn struct {
	Period   int
	Fraction float64
	Protect  map[int]bool
	rng      *rng.Source
	downed   []int
}

var _ Driver = (*BurstChurn)(nil)

// NewBurstChurn returns a burst churn driver.
func NewBurstChurn(period int, fraction float64, seed uint64) *BurstChurn {
	if period < 1 {
		panic("dynamics: burst period must be >= 1")
	}
	return &BurstChurn{Period: period, Fraction: fraction, rng: rng.New(seed)}
}

// Apply kills a random batch on period boundaries and revives the previous
// batch.
func (c *BurstChurn) Apply(s *sim.Sim, tick int) {
	if tick%c.Period != 0 {
		return
	}
	for _, v := range c.downed {
		s.Revive(v)
	}
	c.downed = c.downed[:0]
	var alive []int
	for v := 0; v < s.N(); v++ {
		if s.Alive(v) && !c.Protect[v] {
			alive = append(alive, v)
		}
	}
	kill := int(c.Fraction * float64(len(alive)))
	c.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, v := range alive[:kill] {
		s.Kill(v)
		c.downed = append(c.downed, v)
	}
}

// TargetedChurn repeatedly inserts fresh nodes in the vicinity of a victim
// node by cycling kills and revives among the victim's neighbourhood — the
// adversary's best lever, since the paper places no limit on churn rate.
type TargetedChurn struct {
	Victim  int
	Radius  float64
	Rate    float64 // per-tick probability of cycling each vicinity node
	rng     *rng.Source
	pending []int // killed last tick, to revive (fresh) next
}

var _ Driver = (*TargetedChurn)(nil)

// NewTargetedChurn returns a targeted churn driver around victim.
func NewTargetedChurn(victim int, radius, rate float64, seed uint64) *TargetedChurn {
	return &TargetedChurn{Victim: victim, Radius: radius, Rate: rate, rng: rng.New(seed)}
}

// Apply revives last tick's kills (as fresh arrivals) and kills a new batch
// near the victim.
func (c *TargetedChurn) Apply(s *sim.Sim, tick int) {
	for _, v := range c.pending {
		s.Revive(v)
	}
	c.pending = c.pending[:0]
	sp := s.Space()
	for v := 0; v < s.N(); v++ {
		if v == c.Victim || !s.Alive(v) {
			continue
		}
		if sp.Dist(v, c.Victim) < c.Radius && c.rng.Bernoulli(c.Rate) {
			s.Kill(v)
			c.pending = append(c.pending, v)
		}
	}
}

// RandomWalk moves every alive node each tick by a uniform step in a disc of
// radius StepSize, reflecting at the [0,Side]² boundary. It requires a sim
// built with Dynamic: true over a Euclidean space. The edge-change rate τ of
// the paper scales with StepSize/R: small steps keep τ within the theorem's
// allowance, large steps exceed it (useful for stress ablations).
type RandomWalk struct {
	StepSize float64
	Side     float64
	rng      *rng.Source
}

var _ Driver = (*RandomWalk)(nil)

// NewRandomWalk returns a mobility driver over the [0,side]² domain.
func NewRandomWalk(step, side float64, seed uint64) *RandomWalk {
	return &RandomWalk{StepSize: step, Side: side, rng: rng.New(seed)}
}

// Apply moves every alive node one step.
func (w *RandomWalk) Apply(s *sim.Sim, tick int) {
	e, ok := s.Space().(*metric.Euclidean)
	if !ok {
		return
	}
	for v := 0; v < s.N(); v++ {
		if !s.Alive(v) {
			continue
		}
		// Uniform direction, uniform radius in [0, StepSize].
		ang := w.rng.Range(0, 2*math.Pi)
		r := w.StepSize * math.Sqrt(w.rng.Float64())
		p := e.Point(v)
		p.X = reflect(p.X+r*math.Cos(ang), w.Side)
		p.Y = reflect(p.Y+r*math.Sin(ang), w.Side)
		if err := s.Move(v, p); err != nil {
			return // static sim: mobility silently disabled
		}
	}
}

func reflect(x, side float64) float64 {
	if x < 0 {
		return -x
	}
	if x > side {
		return 2*side - x
	}
	return x
}

// DegreeTracker accumulates the dynamic degree Δ^ρ_v(t,t') of Section 4:
// the size of the union over the observation window of the victim's in-ball
// D^ρ_v(r), counting every entry into the vicinity — a node that leaves and
// comes back is a fresh arrival and counts again.
type DegreeTracker struct {
	victim int
	radius float64
	count  int
	inside map[int]bool
}

// NewDegreeTracker tracks the vicinity D(victim, radius).
func NewDegreeTracker(victim int, radius float64) *DegreeTracker {
	return &DegreeTracker{
		victim: victim,
		radius: radius,
		inside: make(map[int]bool),
	}
}

// Observe records the current tick's vicinity membership.
func (d *DegreeTracker) Observe(s *sim.Sim) {
	sp := s.Space()
	for v := 0; v < s.N(); v++ {
		in := v != d.victim && s.Alive(v) && sp.Dist(v, d.victim) < d.radius
		if in && !d.inside[v] {
			d.count++
		}
		d.inside[v] = in
	}
}

// Degree returns the accumulated dynamic degree.
func (d *DegreeTracker) Degree() int { return d.count }
