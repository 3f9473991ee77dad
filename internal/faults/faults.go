// Package faults is the deterministic fault-injection engine of the
// simulator: a declarative Spec of fault classes compiled into a
// sim.Injector that the tick loop consults (see sim.Config.Injector).
//
// The paper proves robustness against a *polite* adversary — unlimited
// churn and rate-limited edge dynamics (Thm 4.1, Thm 5.1), the classes
// internal/dynamics generates. This package supplies the harsher classes
// related work treats as the real test of contention management under
// interference: crash/restart schedules, stuck-transmitter jammers, deaf
// receivers, sensing corruption (false CD/ACK/NTD readings), random
// message drops and clock stalls.
//
// Every decision is drawn from an rng.Source stream forked per fault class
// and re-forked per (node, tick) — never from a sequentially advanced
// stream — so each decision is a pure function of (fault seed, class,
// node, tick). Fault-injected runs therefore remain pure functions of
// (topology seed, run seed, fault seed) and replay byte-identically across
// worker counts, which Table 12's golden snapshot and the workers
// determinism test pin.
package faults

import (
	"udwn/internal/metrics"
	"udwn/internal/rng"
	"udwn/internal/sim"
)

// JamKind marks the undecodable carrier frames of stuck transmitters. The
// engine drops them at every receiver, so no protocol ever sees one; the
// constant exists so forced actions are identifiable in traces and tests.
const JamKind int32 = -0x7a

// Spec declaratively describes the faults of one run. The zero value
// injects nothing. All rates are per-tick probabilities in [0,1]; all
// subsets are chosen by per-node coin flips keyed off Seed, so membership
// is a pure function of (Seed, node id).
type Spec struct {
	// Seed keys every fault decision (class streams are forked from it).
	Seed uint64

	// CrashRate crashes each unprotected alive node per tick; a crashed
	// node restarts CrashDowntime ticks later as a fresh churn arrival
	// (fresh protocol state and random stream). Zero downtime defaults to
	// 50 ticks. Nodes killed by external dynamics are not restarted.
	CrashRate     float64
	CrashDowntime int

	// JamFraction makes a random subset of nodes stuck transmitters from
	// tick JamFrom onward: they force an undecodable carrier onto the air
	// every slot (pure interference) while their protocols freeze.
	JamFraction float64
	JamFrom     int

	// DeafFraction makes a random subset of nodes deaf receivers: their
	// radios decode nothing, so neighbours keep retrying mass delivery
	// against them forever.
	DeafFraction float64

	// DropRate loses each otherwise-successful reception independently —
	// ground truth, so it voids mass delivery and coverage too.
	DropRate float64

	// SenseRate flips each of the CD/ACK/NTD sensing outcomes
	// independently per observation (false busy, false ack, false near
	// receipt). Flips apply to whatever primitives the run grants.
	SenseRate float64

	// StallRate freezes an unprotected node's clock per tick for StallLen
	// ticks (zero defaults to 50): the protocol neither acts nor observes
	// while the radio keeps receiving. Stalls do not re-trigger while one
	// is in progress.
	StallRate float64
	StallLen  int

	// Protect lists node ids exempt from every node-targeted fault class
	// (crash, jam, deaf, stall, sensing corruption) — e.g. a broadcast
	// source or a measured victim. Channel-level drops (DropRate) still
	// apply to everyone.
	Protect []int
}

// Enabled reports whether the spec injects any fault at all.
func (sp Spec) Enabled() bool {
	return sp.CrashRate > 0 || sp.JamFraction > 0 || sp.DeafFraction > 0 ||
		sp.DropRate > 0 || sp.SenseRate > 0 || sp.StallRate > 0
}

// Engine compiles a Spec into a sim.Injector. One engine drives exactly one
// simulation (it holds per-node schedule state); it is not safe for
// concurrent use, matching the Sim it is bound to.
type Engine struct {
	spec    Spec
	protect map[int]bool

	// Per-class decision streams. These are only ever forked (a pure
	// read), never advanced, so every decision is order-independent.
	crash, jam, deaf, drop, sense, stall *rng.Source

	// Per-node schedule state, sized at the first BeginTick.
	restartAt []int // tick at which an engine-crashed node revives; -1 = up
	stallEnd  []int // first tick at which the node's clock runs again

	ctr *metrics.Counters
}

var _ sim.Injector = (*Engine)(nil)

// New compiles spec into an engine.
func New(spec Spec) *Engine {
	if spec.CrashDowntime <= 0 {
		spec.CrashDowntime = 50
	}
	if spec.StallLen <= 0 {
		spec.StallLen = 50
	}
	root := rng.New(spec.Seed)
	e := &Engine{
		spec:    spec,
		protect: make(map[int]bool, len(spec.Protect)),
		crash:   root.Fork(0xc4a5),
		jam:     root.Fork(0x1a33),
		deaf:    root.Fork(0xdeaf),
		drop:    root.Fork(0xd409),
		sense:   root.Fork(0x5e45),
		stall:   root.Fork(0x57a1),
		ctr:     metrics.NewCounters(),
	}
	for _, v := range spec.Protect {
		e.protect[v] = true
	}
	return e
}

// Counters exposes the injected-event counters ("crashes", "restarts",
// "jam-slots", "deaf-drops", "dropped-recv", "sense-flips", "stalls").
// "deaf-drops" and "dropped-recv" count frames lost that would have
// arrived: the simulator consults DropRecv only for receptions the model
// decodes.
func (e *Engine) Counters() *metrics.Counters { return e.ctr }

// at derives the pure decision stream of one fault class at (node, tick).
// It returns the stream by value, so a decision allocates nothing.
func at(base *rng.Source, v, tick int) rng.Source {
	return *base.Fork(uint64(v)).Fork(uint64(tick))
}

// bernoulli draws one decision from a stream that at returned by value.
func bernoulli(h rng.Source, p float64) bool { return h.Bernoulli(p) }

// jammedNode reports membership in the stuck-transmitter subset — a pure
// function of (Seed, v), independent of time.
func (e *Engine) jammedNode(v int) bool {
	return e.spec.JamFraction > 0 && !e.protect[v] &&
		e.jam.Fork(uint64(v)).Bernoulli(e.spec.JamFraction)
}

// deafNode reports membership in the deaf-receiver subset.
func (e *Engine) deafNode(v int) bool {
	return e.spec.DeafFraction > 0 && !e.protect[v] &&
		e.deaf.Fork(uint64(v)).Bernoulli(e.spec.DeafFraction)
}

// Faulty reports whether node v is permanently fault-ridden — a stuck
// transmitter or deaf receiver. Experiments exclude such nodes from
// completion targets, since they can never correctly participate; the
// interference and retry pressure they exert on healthy nodes is exactly
// what Table 12 measures.
func (e *Engine) Faulty(v int) bool {
	return e.jammedNode(v) || e.deafNode(v)
}

// size lazily allocates per-node schedule state once n is known.
func (e *Engine) size(n int) {
	if e.restartAt != nil {
		return
	}
	e.restartAt = make([]int, n)
	e.stallEnd = make([]int, n)
	for v := range e.restartAt {
		e.restartAt[v] = -1
	}
}

// BeginTick runs the crash/restart and stall schedules. Nodes are visited
// in increasing id order, so the schedule itself is deterministic.
func (e *Engine) BeginTick(s *sim.Sim, tick int) {
	e.size(s.N())
	n := s.N()
	for v := 0; v < n; v++ {
		if e.restartAt[v] >= 0 {
			if tick >= e.restartAt[v] {
				e.restartAt[v] = -1
				s.Revive(v)
				e.ctr.Add("restarts", 1)
			}
			continue // down, or up only as of this tick: no new crash yet
		}
		if e.spec.CrashRate > 0 && !e.protect[v] && s.Alive(v) &&
			bernoulli(at(e.crash, v, tick), e.spec.CrashRate) {
			s.Kill(v)
			e.restartAt[v] = tick + e.spec.CrashDowntime
			e.ctr.Add("crashes", 1)
			continue
		}
		if e.spec.StallRate > 0 && !e.protect[v] && tick >= e.stallEnd[v] &&
			bernoulli(at(e.stall, v, tick), e.spec.StallRate) {
			e.stallEnd[v] = tick + e.spec.StallLen
			e.ctr.Add("stalls", 1)
		}
	}
}

// QuiescentUntil implements sim.QuiescentInjector. Crash, stall and sensing
// corruption draw per-tick decisions (and count events) even in silent
// slots, so any of those rates forfeits the promise entirely. Jammers are
// inert — no seizures, no counters — strictly before JamFrom. Deaf
// receivers and message drops act only on decoded receptions, of which a
// silent slot has none, so they are unconditionally quiet.
//
// Deprecated: the simulator no longer consults sim.QuiescentInjector. The
// method stays only because the frozen end-to-end benchmark
// (bench/bench_test.go) asserts that its counting wrapper still exposes the
// engine's sim.QuiescentInjector; delete it together with that assertion in
// the next change to the benchmark.
func (e *Engine) QuiescentUntil(now int) int {
	if e.spec.CrashRate > 0 || e.spec.StallRate > 0 || e.spec.SenseRate > 0 {
		return now
	}
	if e.spec.JamFraction > 0 && now < e.spec.JamFrom {
		return e.spec.JamFrom
	}
	if e.spec.JamFraction > 0 {
		return now
	}
	return now + (1 << 30)
}

// Seized hijacks jammed and stalled nodes: a jammer forces an undecodable
// carrier onto the air, a stalled node forces a no-op; either way the
// protocol freezes for the tick.
func (e *Engine) Seized(v, tick int) (sim.Action, bool) {
	if tick >= e.spec.JamFrom && e.jammedNode(v) {
		e.ctr.Add("jam-slots", 1)
		return sim.Action{Transmit: true, Msg: sim.Message{Kind: JamKind}}, true
	}
	if e.stallEnd != nil && tick < e.stallEnd[v] {
		return sim.Action{}, true
	}
	return sim.Action{}, false
}

// DropRecv loses receptions at deaf receivers, suppresses decoding of jam
// carriers everywhere, and applies the random per-reception drop rate. The
// simulator calls it only for pairs the model decodes, and every decision
// re-forks per (u, v, tick), so it drops the same frames whichever
// reception driver enumerates them.
func (e *Engine) DropRecv(u, v, tick int) bool {
	if tick >= e.spec.JamFrom && e.jammedNode(u) {
		return true // the jam carrier is pure interference, never a frame
	}
	if e.deafNode(v) {
		e.ctr.Add("deaf-drops", 1)
		return true
	}
	if e.spec.DropRate > 0 &&
		e.drop.Fork(uint64(u)<<32^uint64(v)).Fork(uint64(tick)).Bernoulli(e.spec.DropRate) {
		e.ctr.Add("dropped-recv", 1)
		return true
	}
	return false
}

// Observation corrupts sensing: each of the CD, ACK and NTD outcomes flips
// independently with probability SenseRate. The ACK field is only
// meaningful for transmitters and NTD only for listeners, so each draw
// targets the fields the slot could have populated.
func (e *Engine) Observation(v, tick int, obs *sim.Observation) {
	q := e.spec.SenseRate
	if q <= 0 || e.protect[v] {
		return
	}
	h := at(e.sense, v, tick)
	if h.Bernoulli(q) {
		obs.Busy = !obs.Busy
		e.ctr.Add("sense-flips", 1)
	}
	if obs.Transmitted {
		if h.Bernoulli(q) {
			obs.Acked = !obs.Acked
			e.ctr.Add("sense-flips", 1)
		}
	} else if h.Bernoulli(q) {
		obs.NTD = !obs.NTD
		e.ctr.Add("sense-flips", 1)
	}
}
