package core

import "udwn/internal/sim"

// LocalBcast is the Section 4 local broadcast algorithm:
//
//	Each node runs Try&Adjust(1); if it transmits and detects ACK, it
//	stops (p ← 0 thereafter).
//
// The algorithm is asynchronous and tolerates churn and bounded edge
// changes; Theorem 4.1 bounds its completion time by the node's dynamic
// degree plus log n, and Corollary 4.3 gives the optimal O(Δ + log n) bound
// in static networks. The spontaneous constructor yields the uniform
// variant, which needs no bound on the network size.
//
// The multi-channel constructor extends it over C orthogonal channels, the
// speed-up direction of the related work on multi-channel ad-hoc networks:
// each round the node tunes to a uniformly random channel and runs
// Try&Adjust there, so contention detection, backoff and transmissions are
// all per-channel. With C > 1 a single slot can no longer reach *all*
// neighbours (they are spread across channels), so the dissemination goal is
// cumulative coverage, measured by the simulator's coverage tracker; Done
// fires only on an atomic full delivery, the correct, conservative reading
// of Def. ACK under channel spread.
type LocalBcast struct {
	ta TryAdjust
	// channels is the number of channels Act tunes across; 0 and 1 both
	// keep the node on channel 0 without a draw.
	channels int
	done     bool
	data     int64
}

var (
	_ sim.Protocol     = (*LocalBcast)(nil)
	_ sim.ProbReporter = (*LocalBcast)(nil)
)

// NewLocalBcast returns the standard (non-spontaneous-capable) protocol with
// passiveness β = 1 over a network-size estimate n. data is the payload the
// node must deliver to its neighbourhood.
func NewLocalBcast(n int, data int64) *LocalBcast {
	return &LocalBcast{ta: NewTryAdjust(n, 1), data: data}
}

// NewLocalBcastSpontaneous returns the uniform spontaneous variant starting
// at probability p0 with no floor.
func NewLocalBcastSpontaneous(p0 float64, data int64) *LocalBcast {
	return &LocalBcast{ta: NewTryAdjustSpontaneous(p0), data: data}
}

// NewMCLocalBcast returns the multi-channel protocol for a network-size
// estimate n over the given number of channels. With one channel it is
// NewLocalBcast. It panics unless channels >= 1.
func NewMCLocalBcast(n, channels int, data int64) *LocalBcast {
	if channels < 1 {
		panic("core: MCLocalBcast needs at least one channel")
	}
	return &LocalBcast{ta: NewTryAdjust(n, 1), channels: channels, data: data}
}

// Act tunes to a random channel when there are several, then transmits the
// payload with the current Try&Adjust probability until the node has
// stopped.
func (l *LocalBcast) Act(n *sim.Node, slot int) sim.Action {
	if l.done {
		return sim.Action{}
	}
	ch := 0
	if l.channels > 1 {
		ch = n.RNG.Intn(l.channels)
	}
	return sim.Action{
		Transmit: l.ta.Decide(n.RNG),
		Msg:      sim.Message{Kind: KindLocal, Data: l.data},
		Channel:  int32(ch),
	}
}

// Observe stops on a detected ACK and otherwise applies the backoff rule.
func (l *LocalBcast) Observe(n *sim.Node, slot int, obs *sim.Observation) {
	if l.done {
		return
	}
	if obs.Transmitted && obs.Acked {
		l.done = true
		return
	}
	l.ta.Adjust(obs.Busy)
}

// Done reports whether the node has stopped after a detected ACK.
func (l *LocalBcast) Done() bool { return l.done }

// TransmitProb exposes the probability for contention instrumentation.
func (l *LocalBcast) TransmitProb() float64 {
	if l.done {
		return 0
	}
	return l.ta.P()
}
