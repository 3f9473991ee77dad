package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"udwn"
	"udwn/internal/baseline"
	"udwn/internal/core"
	"udwn/internal/dynamics"
	"udwn/internal/faults"
	"udwn/internal/geom"
	"udwn/internal/metrics"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// The three simulator workloads call the library the way cmd/experiments
// does: generate a topology with internal/workload, build a simulator with
// udwn.Network.NewSim (a metrics.Registry attached), and Step it, applying
// a dynamics.Driver before each step where the workload moves nodes. The
// operation the op_* metrics time is one tick: the driver's Apply, if any,
// plus Sim.Step.

var denseLocal = benchWorkload{
	name:   "dense-local",
	why:    "Table 1 local broadcasts (LocalBcast, Decay, FixedProb) on dense n=1024 SINR discs: the interference field does most of the work",
	loop:   "closed loop, 1 goroutine; an input set is 2 discs x 3 protocols",
	op:     "tick",
	inputs: 2,
	prepare: func(seed uint64, tiny bool) (roundFunc, error) {
		n, deltas := 1024, []int{64, 128}
		if tiny {
			n, deltas = 96, []int{8, 16}
		}
		allMass := allNodes(n, (*sim.Sim).FirstMassDelivery)
		return simRound(seed, func(rs uint64) (cases []simCase) {
			for _, delta := range deltas {
				topo := mix(rs, uint64(delta))
				maxTicks := 400*delta + 200*n
				cases = append(cases, simCase{
					label: fmt.Sprintf("disc n=%d delta=%d", n, delta),
					gen: func() (*udwn.Network, error) {
						return udwn.NewSINRNetwork(workload.UniformDisc(n, workload.SideForDegree(n, delta, rb()), topo), phy()), nil
					},
					runs: []simRun{
						{label: "LocalBcast", maxTicks: maxTicks, done: allMass,
							opts: udwn.SimOptions{Seed: rs, Primitives: sim.CD | sim.ACK},
							factory: func(*udwn.Network) sim.ProtocolFactory {
								return func(id int) sim.Protocol { return core.NewLocalBcast(n, int64(id)) }
							}},
						{label: "Decay", maxTicks: maxTicks, done: allMass,
							opts: udwn.SimOptions{Seed: rs, Primitives: sim.FreeAck},
							factory: func(*udwn.Network) sim.ProtocolFactory {
								return func(id int) sim.Protocol { return baseline.NewDecay(n, int64(id)) }
							}},
						{label: "FixedProb", maxTicks: maxTicks, done: allMass,
							opts: udwn.SimOptions{Seed: rs, Primitives: sim.FreeAck},
							factory: func(*udwn.Network) sim.ProtocolFactory {
								return func(id int) sim.Protocol { return baseline.NewFixedProb(delta, 1, int64(id)) }
							}},
					},
				})
			}
			return cases
		}), nil
	},
}

var sparseStrip = benchWorkload{
	name:   "sparse-strip",
	why:    "Table 3 Bcast* and spontaneous broadcast on a connected n=3200 strip: under one transmitter per slot, so per-slot O(n) sweeps dominate",
	loop:   "closed loop, 1 goroutine; an input set is 1 strip x 2 protocols",
	op:     "tick",
	inputs: 4,
	prepare: func(seed uint64, tiny bool) (roundFunc, error) {
		n := 3200
		if tiny {
			n = 120
		}
		p := phy()
		informed := allNodes(n, (*sim.Sim).FirstDecode)
		spontDone := func(s *sim.Sim) bool {
			for v := 0; v < n; v++ {
				if !s.Protocol(v).(*core.SpontBcast).Informed() {
					return false
				}
			}
			return true
		}
		return simRound(seed, func(rs uint64) []simCase {
			sense := udwn.SimOptions{Seed: rs, Slots: 2, SenseEps: p.Eps / 2,
				Primitives: sim.CD | sim.ACK | sim.NTD}
			return []simCase{{
				label: fmt.Sprintf("strip n=%d", n),
				gen: func() (*udwn.Network, error) {
					pts, err := connectedStrip(n, rs)
					if err != nil {
						return nil, err
					}
					return udwn.NewSINRNetwork(pts, p), nil
				},
				runs: []simRun{
					{label: "Bcast*", maxTicks: 400000, done: informed, source: true, opts: sense,
						factory: func(*udwn.Network) sim.ProtocolFactory {
							return func(id int) sim.Protocol { return core.NewBcastStar(n, 42, id == 0) }
						}},
					{label: "SpontBcast", maxTicks: 400000, done: spontDone, source: true, opts: sense,
						factory: func(nw *udwn.Network) sim.ProtocolFactory {
							ntd := nw.NTDThreshold(p.Eps / 2)
							return func(id int) sim.Protocol {
								return core.NewSpontBcast(0.05, 1/(2*float64(n)), ntd, 42, id == 0)
							}
						}},
				},
			}}
		}), nil
	},
}

var faultedMobile = benchWorkload{
	name:   "faulted-mobile",
	why:    "LocalBcast under Table 12 combined faults plus a random walk: scan reception, DropRecv on every candidate pair, uncached path loss",
	loop:   "closed loop, 1 goroutine; an input set is 2 runs x 3000 ticks",
	op:     "tick",
	inputs: 4,
	prepare: func(seed uint64, tiny bool) (roundFunc, error) {
		n, delta, horizon := 512, 16, 3000
		if tiny {
			n, horizon = 96, 200
		}
		p := phy()
		side := workload.SideForDegree(n, delta, rb())
		return simRound(seed, func(rs uint64) (cases []simCase) {
			for i := uint64(0); i < 2; i++ {
				topo := mix(rs, 10+i)
				cases = append(cases, simCase{
					label: fmt.Sprintf("mobile disc n=%d delta=%d #%d", n, delta, i),
					gen: func() (*udwn.Network, error) {
						return udwn.NewSINRNetwork(workload.UniformDisc(n, side, topo), p), nil
					},
					runs: []simRun{{
						label: "LocalBcast", maxTicks: horizon,
						opts: udwn.SimOptions{Seed: rs, Primitives: sim.CD | sim.ACK, Dynamic: true},
						factory: func(*udwn.Network) sim.ProtocolFactory {
							return func(id int) sim.Protocol { return core.NewLocalBcast(n, int64(id)) }
						},
						// Table 12's "combined moderate" scenario.
						faults: &faults.Spec{Seed: mix(rs, 20+i), CrashRate: 0.002, CrashDowntime: 100,
							JamFraction: 0.02, DropRate: 0.10, SenseRate: 0.05},
						walk: 0.02 * p.Range, side: side, walkSeed: mix(rs, 30+i),
					}},
				})
			}
			return cases
		}), nil
	},
}

func phy() udwn.PHY { return udwn.DefaultPHY() }

// rb is the dissemination radius R_B = (1−ε)R the experiments size
// deployments by.
func rb() float64 {
	p := phy()
	return (1 - p.Eps) * p.Range
}

// mix derives an independent input seed from the workload seed.
func mix(seed, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + k*0xbf58476d1ce4e5b9
	z ^= z >> 31
	return z*0x94d049bb133111eb + 1
}

// connectedStrip draws n uniform points on an n×R_B strip until the
// geometric graph at R_B is connected, as Table 3 does.
func connectedStrip(n int, seed uint64) ([]geom.Point, error) {
	for tries := uint64(0); tries < 50; tries++ {
		pts := workload.Strip(n, float64(n), rb(), seed+tries*997)
		if workload.Connected(pts, rb()) {
			return pts, nil
		}
	}
	return nil, fmt.Errorf("no connected strip of %d nodes in 50 draws", n)
}

// allNodes returns the predicate "first(v) >= 0 for every node".
func allNodes(n int, first func(*sim.Sim, int) int) func(*sim.Sim) bool {
	return func(s *sim.Sim) bool {
		for v := 0; v < n; v++ {
			if first(s, v) < 0 {
				return false
			}
		}
		return true
	}
}

// simCase is one topology and the protocol runs made on it.
type simCase struct {
	label string
	gen   func() (*udwn.Network, error)
	runs  []simRun
}

// simRun is one simulation: a protocol on a topology, stepped until its
// completion predicate holds or maxTicks pass.
type simRun struct {
	label    string
	opts     udwn.SimOptions
	factory  func(nw *udwn.Network) sim.ProtocolFactory
	source   bool                  // node 0 starts informed
	done     func(s *sim.Sim) bool // nil: run the full maxTicks horizon
	maxTicks int
	// faults, when set, arms a fresh fault engine for the run.
	faults *faults.Spec
	// walk > 0 moves every node by a random step of up to walk per tick
	// over the [0,side]² square.
	walk, side float64
	walkSeed   uint64
}

// simRound returns the round function of a simulator workload: input set k
// builds its cases from the seed mix(seed, k), generates each case's
// topology and makes every run on it in order.
func simRound(seed uint64, cases func(roundSeed uint64) []simCase) roundFunc {
	return func(ctx context.Context, r *round, k int) error {
		reg := metrics.NewRegistry()
		for _, c := range cases(mix(seed, uint64(k))) {
			var nw *udwn.Network
			err := r.input(func() (err error) {
				nw, err = c.gen()
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			for _, run := range c.runs {
				if err := ctx.Err(); err != nil {
					return err
				}
				// Free the previous run's simulator first, so peak memory
				// reflects one simulator at a time rather than when the
				// collector and scavenger happened to run.
				debug.FreeOSMemory()
				if err := runSim(r, c.label+" / "+run.label, nw, run, reg); err != nil {
					return fmt.Errorf("%s %s: %w", c.label, run.label, err)
				}
			}
		}
		r.add("sim.index.decodes", float64(reg.CounterValue("sim/decodes")))
		return nil
	}
}

// countingInjector counts the injector calls the tick loop makes. It
// embeds the engine, so every other method — and every optional interface
// the engine implements, such as sim.QuiescentInjector — is the engine's
// own, and runs behave exactly as with the bare engine.
type countingInjector struct {
	*faults.Engine
	dropRecv, seized int64
}

func (c *countingInjector) DropRecv(u, v, tick int) bool {
	c.dropRecv++
	return c.Engine.DropRecv(u, v, tick)
}

func (c *countingInjector) Seized(v, tick int) (sim.Action, bool) {
	c.seized++
	return c.Engine.Seized(v, tick)
}

// runSim makes one simulation, timing set-up and every tick, and records
// its outcome digest under key and its work counts in the round. The
// digest covers only simulated outcomes, never work counters, which
// optimisations may change.
func runSim(r *round, key string, nw *udwn.Network, run simRun, reg *metrics.Registry) error {
	r.calibrate()
	grp := r.tr.group()
	t0 := time.Now()
	root := r.tr.open("sim.run", grp, -1, t0)
	opts := run.opts
	opts.Metrics = reg
	var eng *faults.Engine
	var counted *countingInjector
	if run.faults != nil {
		eng = faults.New(*run.faults)
		opts.Injector = eng
		if r.tr != nil {
			counted = &countingInjector{Engine: eng}
			opts.Injector = counted
		}
	}
	a0 := heapAllocBytes()
	s, err := nw.NewSim(run.factory(nw), opts)
	t1 := time.Now()
	if err != nil {
		return err
	}
	r.setup += t1.Sub(t0).Seconds() / r.factor
	r.tr.record("sim.new", grp, root, t0, t1)
	r.sample("sim.new_alloc_mb", float64(heapAllocBytes()-a0)/(1<<20))
	if run.source {
		s.MarkInformed(0)
	}
	var walk *dynamics.RandomWalk
	if run.walk > 0 {
		walk = dynamics.NewRandomWalk(run.walk, run.side, run.walkSeed)
	}

	completed := run.done == nil
	for s.Tick() < run.maxTicks {
		a := time.Now()
		stepStart := a
		if walk != nil {
			walk.Apply(s, s.Tick())
			if r.tr != nil {
				stepStart = time.Now()
				r.tr.record("dynamics.apply", grp, root, a, stepStart)
			}
		}
		s.Step()
		e := time.Now()
		r.tr.record("sim.step", grp, root, stepStart, e)
		r.op(e.Sub(a))
		if run.done != nil && run.done(s) {
			completed = true
			break
		}
		r.calibrateDue()
	}
	r.tr.close(root, time.Now())

	r.units++
	if !completed {
		r.failed++
	}
	n := s.N()
	h := fnv.New64a()
	hashInts(h, int64(n), int64(s.Tick()), boolInt(completed))
	for v := 0; v < n; v++ {
		hashInts(h, int64(s.FirstDecode(v)), int64(s.FirstMassDelivery(v)))
	}
	hashInts(h, s.TotalTransmissions(), s.TotalMassDeliveries())
	r.outputs[key] = fmt.Sprintf("%016x", h.Sum64())

	r.add("sim.runs", 1)
	r.add("sim.slots", float64(s.Tick()))
	r.add("sim.node_slots", float64(n*s.Tick()))
	r.add("sim.tx", float64(s.TotalTransmissions()))
	field, index, wheel := statsOf(s, "FieldStats"), statsOf(s, "IndexStats"), statsOf(s, "WheelStats")
	for name, key := range map[string]string{
		"sim.field.rebuild_slots": "RebuildSlots", "sim.field.delta_slots": "DeltaSlots",
		"sim.field.reused_slots": "ReusedSlots", "sim.field.epoch_rebuilds": "EpochRebuilds",
		"sim.field.lazy_evals": "LazyEvals",
	} {
		r.add(name, float64(field[key]))
	}
	for name, key := range map[string]string{
		"sim.index.tx_queries": "TxQueries", "sim.index.candidates": "Candidates",
		"sim.index.neighbor_queries": "NeighborQueries", "sim.index.count_queries": "CountQueries",
	} {
		r.add(name, float64(index[key]))
	}
	r.add("sim.wheel.windows", float64(wheel["Windows"]))
	r.add("sim.wheel.skipped_slots", float64(wheel["SkippedSlots"]))
	mode := "unknown"
	if m, ok := any(s).(interface{ IndexMode() string }); ok {
		mode = m.IndexMode()
	}
	if mode == "scan" {
		r.add("sim.index.scan_runs", 1)
	}
	if eng != nil {
		r.add("faults.events", float64(eng.Counters().Total()))
	}
	if counted != nil {
		r.add("faults.drop_recv_calls", float64(counted.dropRecv))
		r.add("faults.seized_calls", float64(counted.seized))
	}
	// Work facts that tracing must not change: how queries were answered
	// and what the wheel skipped.
	r.checks = append(r.checks, fmt.Sprintf("%s index=%s wheel=%d/%d", run.label, mode,
		wheel["Windows"], wheel["SkippedSlots"]))
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
