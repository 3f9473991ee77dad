// Package sim is the discrete, slot-based wireless network simulator the
// dissemination algorithms run on.
//
// The simulator realises the paper's execution model: nodes act in rounds
// (optionally split into slots, as the Bcast algorithm requires), decide to
// transmit with some probability, and the communication model resolves who
// decodes whom under cumulative or graph-based interference. Carrier-sensing
// primitives (CD/ACK/NTD) are computed from the slot's received signal
// strengths per Appendix B. Local synchrony — clocks running at rates within
// a factor two of each other with no global alignment — is modelled by
// per-node round periods of 2-4 ticks with random phases; a node that
// decodes in a tick where it does not act counts as ground truth (first
// decode, mass delivery, coverage) but the frame is not delivered to its
// protocol. Dynamics (churn and mobility) are driven externally through the
// Kill/Revive/Move mutators between Step calls.
package sim

import (
	"errors"
	"fmt"
	"math"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/metrics"
	"udwn/internal/model"
	"udwn/internal/pathloss"
	"udwn/internal/rng"
	"udwn/internal/sensing"
)

// Config describes a simulation: the physical layer the nodes share, plus
// the per-run Options.
type Config struct {
	// Space is the quasi-metric the nodes live in.
	Space metric.Space
	// Model is the communication model resolving receptions.
	Model model.Model
	// P is the uniform transmit power.
	P float64
	// Zeta is the path-loss exponent (the space's metricity).
	Zeta float64
	// Noise is the ambient noise level (only the SINR decode rule uses it;
	// sensing thresholds are noise free).
	Noise float64
	// Eps is the precision parameter ε defining the communication radius
	// R_B and the default primitive thresholds.
	Eps float64
	// BusyScale scales the CD busy threshold. The paper's I_cd is "a
	// constant" fixed by the analysis; the scale calibrates it (values < 1
	// make carrier sensing more sensitive, lowering the contention
	// equilibrium). Zero defaults to 1.
	BusyScale float64
	// AckScale scales the ACK interference threshold. Values > 1 stay
	// within Def. ACK: the positive outcome still requires verified
	// delivery, so loosening the threshold only resolves the definition's
	// adversarial region favourably. Zero defaults to 1.
	AckScale float64
	Options
}

// Options are the per-run settings of a simulation: everything a caller
// chooses per run over a fixed physical layer (udwn.SimOptions is this
// type).
type Options struct {
	// SenseEps is the precision used for the ACK/NTD thresholds; zero
	// defaults to Eps. Bcast sets SenseEps = Eps/2 for its higher-precision
	// primitives.
	SenseEps float64
	// Slots is the number of slots per round (1 or 2); zero defaults to 1.
	Slots int
	// Async enables locally-synchronous mode: each node owns a round period
	// of 2-4 ticks with a random phase. Incompatible with Slots > 1.
	Async bool
	// Seed keys all randomness of the run.
	Seed uint64
	// Primitives selects the sensing primitives granted to protocols.
	Primitives Primitives
	// Adversary resolves under-specified outcomes; nil defaults to
	// PessimisticAdversary.
	Adversary Adversary
	// Dynamic marks the space as mutable (mobility): the path-loss cache (and
	// any neighbour cache) is disabled so every slot reflects current distances.
	Dynamic bool
	// Channels is the number of orthogonal frequency channels (0 or 1 =
	// single channel). Multi-channel operation splits contention: nodes
	// tune per slot via Action.Channel and only same-channel transmissions
	// interfere or are decodable. Incompatible with Async.
	Channels int
	// Observer, when non-nil, is invoked after every resolved slot with a
	// summary event; used for tracing (see trace.JSONL) and live
	// instrumentation. The event's slices alias scratch buffers.
	Observer func(ev SlotEvent)
	// TrackCoverage records cumulative pairwise receipts so experiments can
	// measure *eventual* neighbourhood coverage (every neighbour received
	// the node's message at least once, over any set of slots) in addition
	// to atomic mass delivery. Costs O(n²) bits; used by the fading
	// experiments, where per-slot atomic delivery is unrealistically strict.
	TrackCoverage bool
	// Injector, when non-nil, hooks deterministic fault injection into the
	// tick loop (crash schedules, jammers, message drops, sensing
	// corruption; see the Injector interface and internal/faults).
	Injector Injector
	// Metrics, when non-nil, receives per-slot instrumentation under the
	// "sim/" prefix: slot/transmission/decode/mass-delivery counters, the
	// sensing outcomes protocols observed (CD busy/idle, ACK hit/miss,
	// NTD), contention histograms (realised transmitters per slot and
	// total protocol probability mass), and the "sim/index/*" and
	// "sim/field/*" work counters of the spatial index and the interference
	// engine (IndexStats and FieldStats). Handles are resolved once at
	// construction; the uninstrumented hot path pays a nil check per slot
	// (see BenchmarkStepInstrumented). Registries may be shared across
	// simulations — every update is a commutative integer operation, so
	// merged snapshots stay deterministic under concurrent runs.
	Metrics *metrics.Registry
	// Cancel, when non-nil, is polled at the top of every Step; once it
	// reports true the step panics with a Cancelled sentinel instead of
	// running the slot. This is the cooperative cancellation hook the
	// experiment grid threads from its per-cell contexts (see
	// internal/experiment): it is what lets a deadline or drain actually
	// stop a running simulation rather than abandon its goroutine. The
	// callback must be cheap and safe to call every tick.
	Cancel func() bool
}

// Cancelled is the panic value Step raises when Config.Cancel reports
// cancellation. It deliberately unwinds through protocol code — a cancelled
// simulation has no consistent result to return — and is recovered by the
// driver that installed the Cancel hook (the experiment grid treats it as a
// cancelled cell, never as a protocol bug).
type Cancelled struct {
	// Tick is the tick at which cancellation was observed.
	Tick int
}

func (c Cancelled) String() string {
	return fmt.Sprintf("sim: run cancelled at tick %d", c.Tick)
}

// Sim is a running simulation. It is not safe for concurrent use.
type Sim struct {
	cfg    Config
	n      int
	field  *pathloss.Field
	th     sensing.Thresholds
	rb     float64 // measurement neighbourhood radius, CommRadius(Eps)
	rbAck  float64 // ACK neighbourhood radius, CommRadius(SenseEps)
	rNeigh float64 // max(rb, rbAck): the radius delivery is decided within

	alive      []bool
	nodes      []Node
	protos     []Protocol
	reporters  []ProbReporter // protos[v] as a ProbReporter, or nil
	factory    ProtocolFactory
	root       *rng.Source
	generation []uint64
	adv        Adversary

	tick   int
	slots  int
	period []int
	phase  []int

	// met holds pre-resolved metric handles; nil when uninstrumented.
	met *stepMetrics

	// grid is the spatial index over the positions of alive nodes; non-nil
	// only when the space is a *metric.Euclidean (euclid caches the
	// downcast). Kill/Revive/Move keep it incrementally synchronized, so
	// dynamic runs get the same query asymptotics as static ones. When nil,
	// every spatial query falls back to the O(n) scan path.
	grid   *geom.Grid
	euclid *metric.Euclidean

	// maxDecode is the model's hard decode cutoff (Model.MaxDecodeRange), or
	// 0 when the model declares none; it gates the transmitter-outward
	// reception fast path in Step.
	maxDecode float64

	// sinr is the model as a *model.SINR, whose DecodeFloor lets the indexed
	// walk reject candidates and narrow its radius (see decodeRadius); nil
	// for every other model. floorReach holds, per channel, the slot's
	// unit-scale reach over that floor (floorReaches).
	sinr       *model.SINR
	floorReach []float64

	// idx accumulates spatial-index work counters; idxFlushed tracks what
	// has already been exported to the metrics registry.
	idx        IndexStats
	idxFlushed IndexStats

	// Interference field (see field.go). demand[v] marks receiver v as
	// summed this slot, demandList lists the marked receivers, and fieldAll
	// reports a slot that summed every receiver. radBuf holds each
	// transmitter's demand radius, parallel to txBuf. rowBuf takes the
	// power rows fieldSumAll reads from a field without a cache.
	demand       []bool
	demandList   []int
	fieldAll     bool
	radBuf       []float64
	rowBuf       []float64
	fstat        FieldStats
	fstatFlushed FieldStats

	// invalidOps counts mutator calls (Kill/Revive/Move) that named an
	// out-of-range node id and were rejected as no-ops.
	invalidOps int64

	// neigh caches, per node, the out-neighbours within rNeigh; built only
	// for static spaces without a grid (see buildNeighbours).
	neigh [][]int32

	// Measurements.
	firstMass   []int32
	firstDecode []int32
	txCount     []int32
	massCount   []int32
	totalTx     int64
	totalMass   int64

	// Cumulative coverage (TrackCoverage only): covered[u*n+v] records that
	// v decoded a transmission of u at least once; firstCover[u] is the
	// tick at which u's alive RB-neighbourhood became fully covered.
	covered    []bool
	firstCover []int32

	// Scratch buffers reused across slots. New sizes the per-node ones and
	// makes one view per channel.
	txBuf       []int
	actedBuf    []int
	totalPower  []float64
	recvBuf     []Recv // v's frame this slot; valid where heard[v]
	heard       []bool
	decoders    []int // the listeners with heard set, in decode order
	massBuf     []bool
	massAckBuf  []bool
	scaleBuf    []float64
	chanBuf     []int8
	chanTx      [][]int
	seizedBuf   []bool
	msgBuf      []Message  // message per transmitter id; valid where isTxBuf
	isTxBuf     []bool     // transmitter membership this slot
	massDelBuf  []int      // SlotEvent.MassDeliverers scratch (observer runs only)
	decodersBuf []int      // SlotEvent.Decoders scratch (observer runs only)
	views       []slotView // one per channel
	obsBuf      Observation
}

// IndexStats counts the spatial-index work a simulation has performed, for
// run diagnostics and the "sim/index/*" metrics.
type IndexStats struct {
	// TxQueries is the number of transmitter-outward reception queries
	// (one per transmitter per slot on the indexed path).
	TxQueries int64
	// Candidates is the number of candidate listeners those queries
	// enumerated before filtering and decoding: the nodes inside each
	// transmitter's decode radius, which under SINR the decode floor may
	// have narrowed below its decode cutoff (see decodeRadius).
	Candidates int64
	// NeighborQueries is the number of grid-backed forEachNeighbor
	// enumerations; the indexed driver decides delivery without one.
	NeighborQueries int64
}

// New constructs a simulation. Protocol instances for all nodes are created
// immediately via factory; all nodes start alive.
func New(cfg Config, factory ProtocolFactory) (*Sim, error) {
	if cfg.Space == nil {
		return nil, errors.New("sim: Config.Space is required")
	}
	if cfg.Model == nil {
		return nil, errors.New("sim: Config.Model is required")
	}
	if factory == nil {
		return nil, errors.New("sim: protocol factory is required")
	}
	if !(cfg.P > 0) || !(cfg.Zeta > 0) {
		return nil, fmt.Errorf("sim: P and Zeta must be positive (got %v, %v)", cfg.P, cfg.Zeta)
	}
	if !(cfg.Eps > 0 && cfg.Eps < 1) {
		return nil, fmt.Errorf("sim: Eps must be in (0,1), got %v", cfg.Eps)
	}
	if cfg.SenseEps == 0 {
		cfg.SenseEps = cfg.Eps
	}
	if !(cfg.SenseEps > 0 && cfg.SenseEps < 1) {
		return nil, fmt.Errorf("sim: SenseEps must be in (0,1), got %v", cfg.SenseEps)
	}
	if cfg.Slots == 0 {
		cfg.Slots = 1
	}
	if cfg.Slots < 1 || cfg.Slots > 4 {
		return nil, fmt.Errorf("sim: Slots must be in [1,4], got %d", cfg.Slots)
	}
	if cfg.Async && cfg.Slots > 1 {
		return nil, errors.New("sim: Async mode supports only single-slot rounds")
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.Channels < 1 || cfg.Channels > 16 {
		return nil, fmt.Errorf("sim: Channels must be in [1,16], got %d", cfg.Channels)
	}
	if cfg.Async && cfg.Channels > 1 {
		return nil, errors.New("sim: multi-channel operation requires synchronous rounds")
	}
	if cfg.Adversary == nil {
		cfg.Adversary = PessimisticAdversary{}
	}

	n := cfg.Space.Len()
	s := &Sim{
		cfg:         cfg,
		n:           n,
		field:       pathloss.NewField(cfg.Space, cfg.P, cfg.Zeta, pathloss.Options{Dynamic: cfg.Dynamic}),
		rb:          cfg.Model.CommRadius(cfg.Eps),
		rbAck:       cfg.Model.CommRadius(cfg.SenseEps),
		alive:       make([]bool, n),
		nodes:       make([]Node, n),
		protos:      make([]Protocol, n),
		reporters:   make([]ProbReporter, n),
		factory:     factory,
		root:        rng.New(cfg.Seed),
		generation:  make([]uint64, n),
		adv:         cfg.Adversary,
		slots:       cfg.Slots,
		firstMass:   make([]int32, n),
		firstDecode: make([]int32, n),
		txCount:     make([]int32, n),
		massCount:   make([]int32, n),
		totalPower:  make([]float64, n),
		rowBuf:      make([]float64, n),
		demand:      make([]bool, n),
		recvBuf:     make([]Recv, n),
		heard:       make([]bool, n),
		massBuf:     make([]bool, n),
		massAckBuf:  make([]bool, n),
		scaleBuf:    make([]float64, n),
		chanBuf:     make([]int8, n),
		chanTx:      make([][]int, cfg.Channels),
		seizedBuf:   make([]bool, n),
		msgBuf:      make([]Message, n),
		isTxBuf:     make([]bool, n),
		views:       make([]slotView, cfg.Channels),
	}
	s.rNeigh = math.Max(s.rb, s.rbAck)
	for c := range s.views {
		s.views[c].s = s
	}
	s.th = sensing.NewThresholds(cfg.P, cfg.Zeta, cfg.SenseEps, cfg.Model.R(), cfg.Model.Params())
	if cfg.BusyScale > 0 {
		s.th.BusyRSS *= cfg.BusyScale
	}
	if cfg.AckScale > 0 {
		s.th.AckRSS *= cfg.AckScale
	}

	for i := 0; i < n; i++ {
		s.alive[i] = true
		s.scaleBuf[i] = 1
		s.nodes[i] = Node{ID: i, RNG: s.root.Fork(uint64(i))}
		s.protos[i] = factory(i)
		s.reporters[i], _ = s.protos[i].(ProbReporter)
		s.firstMass[i] = -1
		s.firstDecode[i] = -1
	}
	if cfg.TrackCoverage {
		s.covered = make([]bool, n*n)
		s.firstCover = make([]int32, n)
		for i := range s.firstCover {
			s.firstCover[i] = -1
		}
	}
	if cfg.Async {
		s.period = make([]int, n)
		s.phase = make([]int, n)
		clk := s.root.Fork(^uint64(0))
		for i := 0; i < n; i++ {
			s.period[i] = 2 + clk.Intn(3) // {2,3,4}: rates within a factor 2
			s.phase[i] = clk.Intn(s.period[i])
		}
	}
	if e, ok := cfg.Space.(*metric.Euclidean); ok {
		if cell := cfg.Model.R(); cell > 0 && !math.IsInf(cell, 0) && !math.IsNaN(cell) {
			s.euclid = e
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = e.Point(i)
			}
			s.grid = geom.NewGrid(pts, cell)
		}
	}
	if r := cfg.Model.MaxDecodeRange(); r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
		s.maxDecode = r
	}
	if m, ok := cfg.Model.(*model.SINR); ok {
		s.sinr = m
		s.floorReach = make([]float64, cfg.Channels)
	}
	if !cfg.Dynamic && s.grid == nil {
		s.buildNeighbours()
	}
	if cfg.Metrics != nil {
		s.met = newStepMetrics(cfg.Metrics)
	}
	return s, nil
}

// indexSlack inflates every grid query radius before the exact per-pair
// distance re-check. The grid compares squared distances while the rest of
// the simulator compares sqrt-ed ones; at a radius boundary the two can
// disagree by an ulp, so the index enumerates a hair beyond the radius and
// the exact metric.Space.Dist comparison — the same expression the scan
// paths evaluate — makes the final call. Grid-backed and scan results are
// therefore byte-identical, not merely approximately equal.
const indexSlack = 1 + 1e-9

// buildNeighbours precomputes, by an O(n²) scan, directed out-neighbour lists
// at radius rNeigh for the scan driver's delivery walk on a static space
// without a grid. The cache survives Kill/Revive: distances stay static under
// churn, and liveness is filtered at use time.
func (s *Sim) buildNeighbours() {
	s.neigh = make([][]int32, s.n)
	for u := 0; u < s.n; u++ {
		for v := 0; v < s.n; v++ {
			if v != u && s.cfg.Space.Dist(u, v) <= s.rNeigh {
				s.neigh[u] = append(s.neigh[u], int32(v))
			}
		}
	}
}

// N returns the number of node slots (alive or not).
func (s *Sim) N() int { return s.n }

// Tick returns the number of completed ticks.
func (s *Sim) Tick() int { return s.tick }

// Round returns the number of completed rounds (ticks divided by slots per
// round; in async mode rounds are per node, so this is just ticks).
func (s *Sim) Round() int { return s.tick / s.slots }

// Model returns the communication model.
func (s *Sim) Model() model.Model { return s.cfg.Model }

// Space returns the quasi-metric space.
func (s *Sim) Space() metric.Space { return s.cfg.Space }

// CommRadius returns the dissemination neighbourhood radius R_B.
func (s *Sim) CommRadius() float64 { return s.rb }

// Thresholds returns the sensing thresholds in force.
func (s *Sim) Thresholds() sensing.Thresholds { return s.th }

// Alive reports whether node v is currently in the network.
func (s *Sim) Alive(v int) bool { return s.alive[v] }

// AliveCount returns the number of alive nodes.
func (s *Sim) AliveCount() int {
	c := 0
	for _, a := range s.alive {
		if a {
			c++
		}
	}
	return c
}

// Protocol returns node v's protocol instance, for state inspection by
// experiments.
func (s *Sim) Protocol(v int) Protocol { return s.protos[v] }

// Kill removes node v from the network (churn departure). Killing a dead
// node is a no-op, as is an out-of-range id (counted by InvalidOps) — the
// mutators face raw CLI and driver input and must not panic on bad ids.
func (s *Sim) Kill(v int) {
	if v < 0 || v >= s.n {
		s.invalidOps++
		return
	}
	s.alive[v] = false
	if s.grid != nil {
		s.grid.Remove(v)
	}
}

// Revive returns node v to the network with a fresh protocol instance and a
// fresh random stream, modelling a churn arrival that starts from the
// algorithm's initial configuration. Out-of-range ids are no-ops counted by
// InvalidOps.
func (s *Sim) Revive(v int) {
	if v < 0 || v >= s.n {
		s.invalidOps++
		return
	}
	if s.alive[v] {
		return
	}
	s.alive[v] = true
	s.generation[v]++
	s.nodes[v] = Node{ID: v, RNG: s.root.Fork(uint64(v) ^ s.generation[v]<<40)}
	s.protos[v] = s.factory(v)
	s.reporters[v], _ = s.protos[v].(ProbReporter)
	if s.grid != nil {
		s.grid.Insert(v, s.euclid.Point(v))
	}
}

// InvalidOps returns how many Kill/Revive/Move calls named an out-of-range
// node id and were rejected as no-ops, for surfacing in run diagnostics.
func (s *Sim) InvalidOps() int64 { return s.invalidOps }

// Move relocates node v (mobility edge dynamics). It requires a Euclidean
// space constructed with Dynamic: true. Out-of-range ids return an error
// and are counted by InvalidOps.
func (s *Sim) Move(v int, p geom.Point) error {
	if v < 0 || v >= s.n {
		s.invalidOps++
		return fmt.Errorf("sim: Move: node id %d out of range [0,%d)", v, s.n)
	}
	if !s.cfg.Dynamic {
		return errors.New("sim: Move requires Config.Dynamic")
	}
	e, ok := s.cfg.Space.(*metric.Euclidean)
	if !ok {
		return errors.New("sim: Move requires a Euclidean space")
	}
	e.SetPoint(v, p)
	if s.grid != nil {
		// Dead nodes are absent from the index; Grid.Move then just records
		// the new position, which the Revive-time Insert picks up.
		s.grid.Move(v, p)
	}
	return nil
}

// FirstMassDelivery returns the tick at which node v first mass-delivered
// (transmitted and every alive neighbour decoded), or -1.
func (s *Sim) FirstMassDelivery(v int) int { return int(s.firstMass[v]) }

// FirstDecode returns the tick at which node v first decoded any message,
// or -1. For broadcast runs this is the moment v became informed.
func (s *Sim) FirstDecode(v int) int { return int(s.firstDecode[v]) }

// MarkInformed force-sets node v's first-decode tick if unset; used to seed
// the broadcast source.
func (s *Sim) MarkInformed(v int) {
	if s.firstDecode[v] < 0 {
		s.firstDecode[v] = int32(s.tick)
	}
}

// Transmissions returns the number of transmissions node v has made.
func (s *Sim) Transmissions(v int) int { return int(s.txCount[v]) }

// TotalTransmissions returns the number of transmissions across all nodes.
func (s *Sim) TotalTransmissions() int64 { return s.totalTx }

// MassDeliveries returns how many times node v mass-delivered.
func (s *Sim) MassDeliveries(v int) int { return int(s.massCount[v]) }

// TotalMassDeliveries returns the total number of mass deliveries.
func (s *Sim) TotalMassDeliveries() int64 { return s.totalMass }

// Neighbors returns the alive out-neighbours of u at the measurement radius
// R_B, in no particular order. The returned slice is freshly allocated.
func (s *Sim) Neighbors(u int) []int {
	var out []int
	s.forEachNeighbor(u, s.rb, func(v int) {
		out = append(out, v)
	})
	return out
}

// NeighborCount returns |N(u)| over alive nodes.
func (s *Sim) NeighborCount(u int) int {
	c := 0
	s.forEachNeighbor(u, s.rb, func(int) { c++ })
	return c
}

// forEachNeighbor visits all alive v != u with d(u,v) <= r, in no
// particular order: callers fold the visits into a flag or a count, or
// (Neighbors) return them unordered. Static non-Euclidean spaces read the
// cache (r ≤ rNeigh); Euclidean spaces query the live grid index, inflated
// by indexSlack, and apply the same exact Dist check as the scan path, so
// membership matches the scan exactly.
func (s *Sim) forEachNeighbor(u int, r float64, fn func(v int)) {
	if s.neigh != nil && r <= s.rNeigh {
		for _, v := range s.neigh[u] {
			if s.alive[v] && s.cfg.Space.Dist(u, int(v)) <= r {
				fn(int(v))
			}
		}
		return
	}
	if s.grid != nil {
		s.idx.NeighborQueries++
		it := s.grid.IterWithin(s.euclid.Point(u), r*indexSlack)
		for {
			v, ok := it.Next()
			if !ok {
				return
			}
			if v != u && s.alive[v] && s.cfg.Space.Dist(u, v) <= r {
				fn(v)
			}
		}
	}
	for v := 0; v < s.n; v++ {
		if v != u && s.alive[v] && s.cfg.Space.Dist(u, v) <= r {
			fn(v)
		}
	}
}

// FirstFullCoverage returns the tick at which every alive R_B-neighbour of
// u had cumulatively received u's transmission at least once, or -1. Only
// available with Config.TrackCoverage.
func (s *Sim) FirstFullCoverage(u int) int {
	if s.firstCover == nil {
		return -1
	}
	return int(s.firstCover[u])
}

// CoverageCount returns how many nodes have ever decoded a transmission of
// u. Only available with Config.TrackCoverage.
func (s *Sim) CoverageCount(u int) int {
	if s.covered == nil {
		return 0
	}
	c := 0
	for v := 0; v < s.n; v++ {
		if s.covered[u*s.n+v] {
			c++
		}
	}
	return c
}

// recordCoverage marks (u → v) and re-evaluates u's full-coverage tick.
func (s *Sim) recordCoverage(u, v int) {
	if s.covered == nil || s.covered[u*s.n+v] {
		return
	}
	s.covered[u*s.n+v] = true
	if s.firstCover[u] >= 0 {
		return
	}
	full := true
	s.forEachNeighbor(u, s.rb, func(w int) {
		if !s.covered[u*s.n+w] {
			full = false
		}
	})
	if full {
		s.firstCover[u] = int32(s.tick)
	}
}

// Contention returns the sum of transmission probabilities of alive nodes
// whose distance towards v is below radius (the paper's P^ρ_t(v) when
// radius = ρR). Probabilities are read from protocols implementing
// ProbReporter; others count as zero. Intended for instrumentation.
func (s *Sim) Contention(v int, radius float64) float64 {
	total := 0.0
	for w := 0; w < s.n; w++ {
		if w == v || !s.alive[w] {
			continue
		}
		if s.cfg.Space.Dist(w, v) >= radius {
			continue
		}
		if pr := s.reporters[w]; pr != nil {
			total += pr.TransmitProb()
		}
	}
	if pr := s.reporters[v]; pr != nil && s.alive[v] {
		total += pr.TransmitProb()
	}
	return total
}

// ProbReporter is implemented by protocols that expose their current
// transmission probability, enabling contention instrumentation.
type ProbReporter interface {
	TransmitProb() float64
}

// IndexMode names the live Phase-3 reception driver: "grid" when receptions
// are answered transmitter-outward from the spatial index (Euclidean space
// with a positive model radius, and a model declaring a decode cutoff),
// "scan" otherwise.
func (s *Sim) IndexMode() string {
	if s.indexedRecv() {
		return "grid"
	}
	return "scan"
}

// indexedRecv reports whether Phase 3 takes the indexed reception driver.
func (s *Sim) indexedRecv() bool { return s.grid != nil && s.maxDecode > 0 }

// IndexStats returns the cumulative spatial-index work counters.
func (s *Sim) IndexStats() IndexStats { return s.idx }
