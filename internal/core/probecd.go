package core

import (
	"math"

	"udwn/internal/sim"
)

// NoCSLocalBcast is local broadcast WITHOUT carrier sensing, implementing
// the CD primitive "by other means" as sketched in Appendix B: in a
// synchronised system, contention can be estimated by probing. Time is
// divided into epochs of K sub-phases of C slots each; in sub-phase i every
// contender transmits with its Try&Adjust probability scaled by 2^{1−i}.
// A node's decode rate in sub-phase i is ≈ S·e^{−S} with S = 2^{1−i}·P,
// where P is the true neighbourhood contention: the sub-phase where decodes
// peak reveals log₂ P. One Try&Adjust step is applied per epoch, so the
// protocol pays the promised logarithmic-factor overhead over carrier-sense
// LocalBcast (Table 7 measures exactly this gap).
//
// Without carrier sensing there is no threshold-ACK either; the stop rule
// uses the acknowledgement bit the simulator is configured with (FreeAck,
// matching the "free acknowledgements" assumption of the carrier-sense-free
// local broadcast literature).
type NoCSLocalBcast struct {
	ta   TryAdjust
	done bool
	data int64

	// Epoch structure.
	k       int // sub-phases per epoch
	c       int // slots per sub-phase
	slot    int // slot index within the epoch
	decodes []int

	// busyThreshold is the contention estimate above which the epoch reads
	// Busy; the paper's φ > 1.
	busyThreshold float64
}

var (
	_ sim.Protocol     = (*NoCSLocalBcast)(nil)
	_ sim.ProbReporter = (*NoCSLocalBcast)(nil)
)

// NewNoCSLocalBcast returns the probing protocol for a network-size
// estimate n. probesPerPhase is the repetition constant C (≥ 1); the number
// of sub-phases is K = ⌈log₂ n⌉ + 1.
func NewNoCSLocalBcast(n int, probesPerPhase int, data int64) *NoCSLocalBcast {
	if n < 2 {
		n = 2
	}
	if probesPerPhase < 1 {
		probesPerPhase = 1
	}
	k := int(math.Ceil(math.Log2(float64(n)))) + 1
	return &NoCSLocalBcast{
		ta:            NewTryAdjust(n, 1),
		data:          data,
		k:             k,
		c:             probesPerPhase,
		decodes:       make([]int, k),
		busyThreshold: 2,
	}
}

// EpochLen returns the number of slots per logical Try&Adjust round.
func (p *NoCSLocalBcast) EpochLen() int { return p.k * p.c }

// subPhase returns the current sub-phase index (0-based).
func (p *NoCSLocalBcast) subPhase() int { return p.slot / p.c }

// Act transmits with the sub-phase-scaled probability.
func (p *NoCSLocalBcast) Act(n *sim.Node, slot int) sim.Action {
	if p.done {
		return sim.Action{}
	}
	scaled := p.ta.P() * math.Pow(2, -float64(p.subPhase()))
	return sim.Action{
		Transmit: n.RNG.Bernoulli(scaled),
		Msg:      sim.Message{Kind: KindLocal, Data: p.data},
	}
}

// Observe accumulates decode counts and applies one Try&Adjust step per
// epoch using the probing estimate of the channel state.
func (p *NoCSLocalBcast) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	if p.done {
		return
	}
	if obs.Transmitted && obs.Acked {
		p.done = true
		return
	}
	if len(obs.Received) > 0 {
		p.decodes[p.subPhase()]++
	}
	p.slot++
	if p.slot < p.EpochLen() {
		return
	}
	p.ta.Adjust(p.estimateBusy())
	p.slot = 0
	for i := range p.decodes {
		p.decodes[i] = 0
	}
}

// estimateBusy converts the epoch's decode profile into a Busy/Idle call:
// the peak sub-phase i* satisfies 2^{−i*}·P ≈ 1, so P ≈ 2^{i*}. A silent
// epoch reads Idle (negligible contention).
func (p *NoCSLocalBcast) estimateBusy() bool {
	best, bestCount := -1, 0
	for i, c := range p.decodes {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return false
	}
	return math.Pow(2, float64(best)) >= p.busyThreshold
}

// Done reports whether the node has stopped.
func (p *NoCSLocalBcast) Done() bool { return p.done }

// TransmitProb reports the unscaled Try&Adjust probability.
func (p *NoCSLocalBcast) TransmitProb() float64 {
	if p.done {
		return 0
	}
	return p.ta.P()
}
