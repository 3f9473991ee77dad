// Package baseline implements the comparison algorithms the paper's related
// work discusses, for the benchmark harness:
//
//   - Decay: the Bar-Yehuda–Goldreich–Itai decay protocol, the classical
//     O(Δ·log n) local-broadcast strategy in radio networks, which needs no
//     carrier sensing.
//   - FixedProb: transmit forever with probability Θ(1/Δ), the textbook
//     strategy when the maximum degree is known.
//   - RoundRobin: the deterministic O(n) schedule, optimal under full
//     adversarial uncertainty.
//   - DecayBcast: global broadcast by decay flooding, the shape of the best
//     carrier-sense-free broadcast algorithms (O(D·log² n)).
//
// All protocols implement sim.Protocol. Baselines are measured against
// ground-truth mass delivery (sim.FirstMassDelivery), so they need no ACK
// machinery of their own; Decay and FixedProb optionally stop on FreeAck.
package baseline

import (
	"math"

	"udwn/internal/sim"
)

// KindBaseline tags baseline payloads.
const KindBaseline int32 = 10

// Decay runs decay cycles: within a cycle of length ⌈log₂ n⌉ it transmits
// with probability 2^{-1}, 2^{-2}, ..., 2^{-⌈log₂ n⌉}, then starts over.
// If the simulator grants FreeAck, the node stops after a confirmed
// delivery.
type Decay struct {
	cycleLen int
	step     int
	done     bool
	data     int64
}

var (
	_ sim.Protocol     = (*Decay)(nil)
	_ sim.ProbReporter = (*Decay)(nil)
)

// NewDecay returns a decay protocol for a network-size estimate n.
func NewDecay(n int, data int64) *Decay {
	if n < 2 {
		n = 2
	}
	return &Decay{cycleLen: int(math.Ceil(math.Log2(float64(n)))), data: data}
}

// decayProb is decay step k's probability 2^{-(k+1)}, an exact power of two.
func decayProb(k int) float64 { return math.Ldexp(1, -(k + 1)) }

// Act transmits with the current decay probability.
func (d *Decay) Act(n *sim.Node, slot int) sim.Action {
	if d.done {
		return sim.Action{}
	}
	p := decayProb(d.step % d.cycleLen)
	d.step++
	return sim.Action{
		Transmit: n.RNG.Bernoulli(p),
		Msg:      sim.Message{Kind: KindBaseline, Data: d.data},
	}
}

// Observe stops on a free acknowledgement.
func (d *Decay) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	if obs.Transmitted && obs.Acked {
		d.done = true
	}
}

// Done reports whether the node has stopped.
func (d *Decay) Done() bool { return d.done }

// TransmitProb reports the probability of the upcoming step.
func (d *Decay) TransmitProb() float64 {
	if d.done {
		return 0
	}
	return decayProb(d.step % d.cycleLen)
}

// FixedProb transmits forever with probability c/Δ, the classical strategy
// when the maximum degree Δ is known. It stops on FreeAck if granted.
type FixedProb struct {
	p    float64
	done bool
	data int64
}

var (
	_ sim.Protocol     = (*FixedProb)(nil)
	_ sim.ProbReporter = (*FixedProb)(nil)
)

// NewFixedProb returns a fixed-probability protocol with p = min(c/delta, 1/2).
func NewFixedProb(delta int, c float64, data int64) *FixedProb {
	if delta < 1 {
		delta = 1
	}
	return &FixedProb{p: math.Min(c/float64(delta), 0.5), data: data}
}

// Act transmits with the fixed probability.
func (f *FixedProb) Act(n *sim.Node, slot int) sim.Action {
	if f.done {
		return sim.Action{}
	}
	return sim.Action{
		Transmit: n.RNG.Bernoulli(f.p),
		Msg:      sim.Message{Kind: KindBaseline, Data: f.data},
	}
}

// Observe stops on a free acknowledgement.
func (f *FixedProb) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	if obs.Transmitted && obs.Acked {
		f.done = true
	}
}

// Done reports whether the node has stopped.
func (f *FixedProb) Done() bool { return f.done }

// TransmitProb reports the fixed probability.
func (f *FixedProb) TransmitProb() float64 {
	if f.done {
		return 0
	}
	return f.p
}

// RoundRobin transmits deterministically in the slots congruent to the
// node's id modulo n — collision-free by construction, Θ(n) latency.
type RoundRobin struct {
	n    int
	t    int
	done bool
	data int64
}

var _ sim.Protocol = (*RoundRobin)(nil)

// NewRoundRobin returns a round-robin protocol over n schedule slots.
func NewRoundRobin(n int, data int64) *RoundRobin {
	if n < 1 {
		n = 1
	}
	return &RoundRobin{n: n, data: data}
}

// Act transmits in the node's own schedule slots.
func (r *RoundRobin) Act(n *sim.Node, slot int) sim.Action {
	mine := r.t%r.n == n.ID%r.n
	r.t++
	if r.done || !mine {
		return sim.Action{}
	}
	return sim.Action{Transmit: true, Msg: sim.Message{Kind: KindBaseline, Data: r.data}}
}

// Observe stops on a free acknowledgement.
func (r *RoundRobin) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	if obs.Transmitted && obs.Acked {
		r.done = true
	}
}

// DecayBcast is global broadcast by decay flooding without carrier sensing:
// a node that has received the payload repeats decay cycles indefinitely.
// Its latency shape is O(D·log² n), the best known for broadcast without
// carrier-sense primitives in this setting.
type DecayBcast struct {
	cycleLen int
	step     int
	informed bool
	data     int64
}

var (
	_ sim.Protocol     = (*DecayBcast)(nil)
	_ sim.ProbReporter = (*DecayBcast)(nil)
)

// NewDecayBcast returns the decay-flooding broadcast protocol. isSource
// marks the initially informed node.
func NewDecayBcast(n int, data int64, isSource bool) *DecayBcast {
	if n < 2 {
		n = 2
	}
	return &DecayBcast{
		cycleLen: int(math.Ceil(math.Log2(float64(n)))),
		informed: isSource,
		data:     data,
	}
}

// Act transmits with the current decay probability once informed.
func (d *DecayBcast) Act(n *sim.Node, slot int) sim.Action {
	if !d.informed {
		return sim.Action{}
	}
	p := decayProb(d.step % d.cycleLen)
	d.step++
	return sim.Action{
		Transmit: n.RNG.Bernoulli(p),
		Msg:      sim.Message{Kind: KindBaseline, Data: d.data},
	}
}

// Observe wakes the node on first receipt.
func (d *DecayBcast) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	if len(obs.Received) > 0 {
		d.informed = true
	}
}

// Informed reports whether the node holds the payload.
func (d *DecayBcast) Informed() bool { return d.informed }

// TransmitProb reports the probability of the upcoming step.
func (d *DecayBcast) TransmitProb() float64 {
	if !d.informed {
		return 0
	}
	return decayProb(d.step % d.cycleLen)
}
