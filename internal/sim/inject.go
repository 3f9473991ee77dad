package sim

// Injector is the fault-injection hook of the tick loop. The simulator
// consults a configured injector at four fixed points of Step; a nil
// injector costs nothing. The canonical implementation is internal/faults.
//
// Implementations must be deterministic functions of (their own seed, the
// call arguments): decisions may not depend on wall clock, map iteration
// order, or on how many times a query method is invoked. The simulator in
// turn guarantees a fixed call discipline — BeginTick once per tick, Seized
// exactly once per alive node per tick in increasing node order, DropRecv
// once per reception the model would decode, and Observation once per
// acting node — so fault-injected runs stay pure functions of (topology
// seed, run seed, fault seed) and replay byte-identically at any worker
// count. DropRecv is never asked about a pair the model rejects, so its
// side effects (fault counters) count frames lost that would have arrived,
// whichever reception driver the slot used.
type Injector interface {
	// BeginTick runs before the tick's actions are collected. The injector
	// may mutate the network through the public dynamics surface (Kill,
	// Revive, Move) to realise crash/restart schedules. It runs after any
	// external dynamics.Driver for the same tick.
	BeginTick(s *Sim, tick int)

	// Seized reports whether node v's radio is hijacked this tick and, if
	// so, the action forced onto the air. A seized node's protocol neither
	// acts nor observes (its state freezes): a forced transmission models a
	// stuck transmitter, a forced no-op models a stalled clock. The node's
	// receiver hardware still participates in ground truth — a seized
	// non-transmitter can decode (subject to DropRecv), and its liveness
	// still counts against its neighbours' mass deliveries.
	Seized(v, tick int) (Action, bool)

	// DropRecv reports whether v's otherwise-successful reception of u's
	// transmission this tick is lost (deaf receiver, random message drop,
	// undecodable jam carrier). It is called only after the model decoded
	// the pair. The drop is ground truth: it also voids mass delivery,
	// coverage and first-decode accounting.
	DropRecv(u, v, tick int) bool

	// Observation may corrupt node v's sensing outcome after the slot
	// resolved (false CD busy/idle, false ACK, false NTD readings). It is
	// called only for nodes that acted under protocol control; corrupted
	// fields are meaningful only for primitives the run grants.
	Observation(v, tick int, obs *Observation)
}

// QuiescentInjector is an optional injector extension the simulator no
// longer consults.
//
// Deprecated: the simulator executes every slot, so no promise of inertness
// changes how a run steps. The interface stays only because the frozen
// end-to-end benchmark (bench/bench_test.go) type-asserts it; delete it
// together with that assertion in the next change to the benchmark.
type QuiescentInjector interface {
	// QuiescentUntil returns a tick t >= now such that the injector is
	// inert on every silent tick in [now, t); t == now promises nothing.
	QuiescentUntil(now int) int
}
