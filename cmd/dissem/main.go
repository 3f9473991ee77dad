// Command dissem runs a single dissemination scenario from flags and prints
// its outcome: which algorithm, over which communication model, on what
// deployment.
//
// Examples:
//
//	dissem -alg local -model sinr -n 512 -delta 32
//	dissem -alg bcast -model sinr -n 400 -strip 400
//	dissem -alg spont -model udg -n 300 -strip 300
//	dissem -alg local -model sinr -n 512 -churn 0.01 -async
//	dissem -alg local -n 256 -trace run.jsonl
//	dissem -alg bcast-star -n 300 -strip 300 -svg wave.svg
//	dissem -alg local -n 256 -fault-jam 0.05 -fault-drop 0.2
//	dissem -alg bcast -n 400 -strip 400 -fault-crash 0.005 -fault-sense 0.1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"udwn"
	"udwn/internal/baseline"
	"udwn/internal/core"
	"udwn/internal/dynamics"
	"udwn/internal/faults"
	"udwn/internal/geom"
	"udwn/internal/metrics"
	"udwn/internal/sim"
	"udwn/internal/trace"
	"udwn/internal/viz"
	"udwn/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dissem:", err)
		os.Exit(1)
	}
}

type flags struct {
	alg      string
	model    string
	n        int
	delta    int
	strip    float64
	seed     uint64
	maxTicks int
	churn    float64
	walk     float64
	async    bool
	trace    string
	traceFmt string
	svg      string

	// Observability outputs (internal/metrics).
	manifest   string
	cpuprofile string
	memprofile string

	// Fault injection (internal/faults); any non-zero rate arms the engine.
	faultCrash float64
	faultDown  int
	faultJam   float64
	faultDeaf  float64
	faultDrop  float64
	faultSense float64
	faultStall float64
}

// faultSpec assembles the declarative fault spec from the flags. The fault
// seed is derived from the run seed, keeping the whole run a pure function
// of -seed.
func (f flags) faultSpec() faults.Spec {
	return faults.Spec{
		Seed:          f.seed ^ 0xfa017,
		CrashRate:     f.faultCrash,
		CrashDowntime: f.faultDown,
		JamFraction:   f.faultJam,
		DeafFraction:  f.faultDeaf,
		DropRate:      f.faultDrop,
		SenseRate:     f.faultSense,
		StallRate:     f.faultStall,
		StallLen:      100,
	}
}

func parseFlags() flags {
	var f flags
	flag.StringVar(&f.alg, "alg", "local", "algorithm: local | local-spont | bcast | bcast-star | spont | decay | fixed | decay-bcast")
	flag.StringVar(&f.model, "model", "sinr", "model: sinr | udg | qudg | protocol | big")
	flag.IntVar(&f.n, "n", 512, "number of nodes")
	flag.IntVar(&f.delta, "delta", 16, "target average degree (square deployments)")
	flag.Float64Var(&f.strip, "strip", 0, "strip length (0 = square deployment)")
	seed := flag.Uint64("seed", 1, "run seed")
	flag.IntVar(&f.maxTicks, "max-ticks", 200000, "tick budget")
	flag.Float64Var(&f.churn, "churn", 0, "per-tick Poisson churn probability")
	flag.Float64Var(&f.walk, "walk", 0, "random-walk step as a fraction of R per tick")
	flag.BoolVar(&f.async, "async", false, "locally-synchronous clocks")
	flag.StringVar(&f.trace, "trace", "", "write a slot trace to this file")
	flag.StringVar(&f.traceFmt, "trace-format", "jsonl", "trace encoding: jsonl (reference, greppable) | binary (compact framed, for big runs)")
	flag.StringVar(&f.svg, "svg", "", "render the outcome (completion-time heatmap) to this SVG file")
	flag.StringVar(&f.manifest, "manifest", "", "write a JSON run manifest (config, metrics, counters) to this file")
	flag.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU pprof profile to this file")
	flag.StringVar(&f.memprofile, "memprofile", "", "write a heap pprof profile to this file")
	flag.Float64Var(&f.faultCrash, "fault-crash", 0, "per-tick crash probability (nodes restart after -fault-down ticks)")
	flag.IntVar(&f.faultDown, "fault-down", 100, "crash downtime in ticks")
	flag.Float64Var(&f.faultJam, "fault-jam", 0, "fraction of nodes that are stuck transmitters (undecodable carrier)")
	flag.Float64Var(&f.faultDeaf, "fault-deaf", 0, "fraction of nodes with deaf receivers")
	flag.Float64Var(&f.faultDrop, "fault-drop", 0, "per-reception message drop probability")
	flag.Float64Var(&f.faultSense, "fault-sense", 0, "per-observation CD/ACK/NTD corruption probability")
	flag.Float64Var(&f.faultStall, "fault-stall", 0, "per-tick clock stall probability (100-tick stalls)")
	flag.Parse()
	f.seed = *seed
	return f
}

func run() error {
	f := parseFlags()
	phy := udwn.DefaultPHY()
	rb := (1 - phy.Eps) * phy.Range

	if f.cpuprofile != "" {
		stop, err := metrics.StartCPUProfile(f.cpuprofile)
		if err != nil {
			return err
		}
		defer stop()
	}
	start := time.Now()

	var pts = buildPoints(f, rb)
	nw, err := buildNetwork(f, pts, phy, rb)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	opts := udwn.SimOptions{
		Seed:       f.seed,
		Async:      f.async,
		Primitives: sim.CD | sim.ACK,
		Dynamic:    f.walk > 0,
		Metrics:    reg,
	}
	var eng *faults.Engine
	if spec := f.faultSpec(); spec.Enabled() {
		spec.Protect = []int{0} // keep the source / node 0 measurable
		eng = faults.New(spec)
		opts.Injector = eng
	}
	// faulty excludes permanently fault-ridden nodes (stuck transmitters,
	// deaf receivers) from completion predicates: they can never finish.
	faulty := func(int) bool { return false }
	if eng != nil {
		faulty = eng.Faulty
	}
	global := false
	var factory sim.ProtocolFactory
	switch f.alg {
	case "local":
		factory = func(id int) sim.Protocol { return core.NewLocalBcast(f.n, int64(id)) }
	case "local-spont":
		factory = func(id int) sim.Protocol { return core.NewLocalBcastSpontaneous(0.25, int64(id)) }
	case "bcast":
		global = true
		opts.Slots, opts.SenseEps = 2, phy.Eps/2
		opts.Primitives |= sim.NTD
		factory = func(id int) sim.Protocol { return core.NewBcast(f.n, 3, 42, id == 0) }
	case "bcast-star":
		global = true
		opts.Slots, opts.SenseEps = 2, phy.Eps/2
		opts.Primitives |= sim.NTD
		factory = func(id int) sim.Protocol { return core.NewBcastStar(f.n, 42, id == 0) }
	case "spont":
		global = true
		opts.Slots, opts.SenseEps = 2, phy.Eps/2
		opts.Primitives |= sim.NTD
		ntd := nw.NTDThreshold(phy.Eps / 2)
		factory = func(id int) sim.Protocol {
			return core.NewSpontBcast(0.05, 1/(2*float64(f.n)), ntd, 42, id == 0)
		}
	case "decay":
		opts.Primitives = sim.FreeAck
		factory = func(id int) sim.Protocol { return baseline.NewDecay(f.n, int64(id)) }
	case "fixed":
		opts.Primitives = sim.FreeAck
		factory = func(id int) sim.Protocol { return baseline.NewFixedProb(f.delta, 1, int64(id)) }
	case "decay-bcast":
		global = true
		opts.Primitives = 0
		factory = func(id int) sim.Protocol { return baseline.NewDecayBcast(f.n, 42, id == 0) }
	default:
		return fmt.Errorf("unknown algorithm %q", f.alg)
	}
	if f.async && opts.Slots > 1 {
		return errors.New("two-slot algorithms require synchronous rounds")
	}

	var rec trace.Writer
	if f.trace != "" {
		format, err := trace.ParseFormat(f.traceFmt)
		if err != nil {
			return err
		}
		out, err := os.Create(f.trace)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		defer out.Close()
		if rec, err = trace.NewWriter(out, format); err != nil {
			return err
		}
		opts.Observer = trace.LockedObserver(rec)
	}

	s, err := nw.NewSim(factory, opts)
	if err != nil {
		return err
	}

	var drv dynamics.Driver
	switch {
	case f.churn > 0:
		c := dynamics.NewPoissonChurn(f.churn, f.seed^0xc0ffee)
		c.Protect = map[int]bool{0: true}
		drv = c
	case f.walk > 0:
		side := workload.SideForDegree(f.n, f.delta, rb)
		if f.strip > 0 {
			side = f.strip
		}
		drv = dynamics.NewRandomWalk(f.walk*phy.Range, side, f.seed^0xfeed)
	}

	var pred func(*sim.Sim) bool
	if global {
		s.MarkInformed(0)
		if f.alg == "spont" {
			// Dominator-construction traffic also produces decodes, so ask
			// the protocol for payload receipt.
			pred = func(s *sim.Sim) bool {
				for v := 0; v < f.n; v++ {
					if s.Alive(v) && !faulty(v) && !s.Protocol(v).(*core.SpontBcast).Informed() {
						return false
					}
				}
				return true
			}
		} else {
			pred = func(s *sim.Sim) bool {
				for v := 0; v < f.n; v++ {
					if s.Alive(v) && !faulty(v) && s.FirstDecode(v) < 0 {
						return false
					}
				}
				return true
			}
		}
	} else {
		pred = func(s *sim.Sim) bool {
			for v := 0; v < f.n; v++ {
				if s.Alive(v) && !faulty(v) && s.FirstMassDelivery(v) < 0 {
					return false
				}
			}
			return true
		}
	}

	ticks, done := dynamics.RunUntil(s, drv, pred, f.maxTicks)
	report(s, f, ticks, done, global)
	if eng != nil {
		fmt.Printf("  faults: %s\n", eng.Counters())
	}
	if bad := s.InvalidOps(); bad > 0 {
		fmt.Printf("  invalid-ops: %d\n", bad)
	}
	if f.svg != "" {
		if err := renderSVG(s, pts, f, ticks, global); err != nil {
			return err
		}
		fmt.Printf("  svg: %s\n", f.svg)
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return err
		}
		fmt.Printf("  trace: %d events (%s) -> %s\n", rec.Events(), f.traceFmt, f.trace)
		// Surface the trace volume in the metric snapshot/manifest alongside
		// the sim/* instrumentation.
		reg.Counter("trace/events").Add(int64(rec.Events()))
		if b, ok := rec.(*trace.Binary); ok {
			reg.Counter("trace/frames").Add(b.Frames())
			reg.Counter("trace/bytes").Add(b.BytesWritten())
		}
	}
	if f.manifest != "" {
		if err := writeManifest(f, reg, eng, s, ticks, done, time.Since(start)); err != nil {
			return err
		}
		fmt.Printf("  manifest: %s\n", f.manifest)
	}
	if f.memprofile != "" {
		if err := metrics.WriteHeapProfile(f.memprofile); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest records the run: effective flags, outcome, the simulator's
// metric snapshot, and the fault engine's event counters when armed.
func writeManifest(f flags, reg *metrics.Registry, eng *faults.Engine,
	s *sim.Sim, ticks int, done bool, wall time.Duration) error {
	m := metrics.NewManifest("dissem")
	m.SetConfig("alg", f.alg)
	m.SetConfig("model", f.model)
	m.SetConfig("n", f.n)
	m.SetConfig("delta", f.delta)
	m.SetConfig("strip", f.strip)
	m.SetConfig("seed", f.seed)
	m.SetConfig("max-ticks", f.maxTicks)
	m.SetConfig("churn", f.churn)
	m.SetConfig("walk", f.walk)
	m.SetConfig("async", f.async)
	if f.trace != "" {
		m.SetConfig("trace", f.trace)
		m.SetConfig("trace-format", f.traceFmt)
	}
	m.SetConfig("done", done)
	m.SetConfig("ticks", ticks)
	m.SetConfig("invalid-ops", s.InvalidOps())
	m.SetConfig("slot-index", s.IndexMode())
	m.WallNs = int64(wall)
	m.Metrics = reg.Snapshot()
	if eng != nil {
		m.Counters = eng.Counters().Map()
	}
	return m.WriteFile(f.manifest)
}

func buildPoints(f flags, rb float64) []geom.Point {
	if f.strip > 0 {
		return workload.Strip(f.n, f.strip, rb, f.seed^0x515)
	}
	side := workload.SideForDegree(f.n, f.delta, rb)
	return workload.UniformDisc(f.n, side, f.seed^0x515)
}

func buildNetwork(f flags, pts []geom.Point, phy udwn.PHY, rb float64) (*udwn.Network, error) {
	switch f.model {
	case "sinr":
		return udwn.NewSINRNetwork(pts, phy), nil
	case "udg":
		return udwn.NewUDGNetwork(pts, phy), nil
	case "qudg":
		return udwn.NewQUDGNetwork(pts, phy, 0.75, nil), nil
	case "protocol":
		return udwn.NewProtocolNetwork(pts, phy, 2), nil
	case "big":
		return udwn.NewBIGNetwork(workload.GeometricGraph(pts, rb), 2, phy), nil
	default:
		return nil, fmt.Errorf("unknown model %q", f.model)
	}
}

// renderSVG draws the deployment coloured by completion time: blue = early,
// red = late, grey = never / dead.
func renderSVG(s *sim.Sim, pts []geom.Point, f flags, ticks int, global bool) error {
	scene := viz.NewScene(pts, fmt.Sprintf("%s on %s, n=%d", f.alg, f.model, f.n))
	scene.EdgesWithin(s.CommRadius())
	for v := 0; v < f.n; v++ {
		t := s.FirstMassDelivery(v)
		if global {
			t = s.FirstDecode(v)
		}
		st := viz.NodeStyle{Fill: "#bbb"}
		switch {
		case !s.Alive(v):
			st.Fill = "#eee"
		case t >= 0 && ticks > 0:
			st.Fill = viz.HeatColor(float64(t) / float64(ticks))
		}
		if global && v == 0 {
			st.Label = "source"
			st.Ring = s.CommRadius()
		}
		scene.Style(v, st)
	}
	out, err := os.Create(f.svg)
	if err != nil {
		return fmt.Errorf("svg file: %w", err)
	}
	defer out.Close()
	return scene.Render(out)
}

func report(s *sim.Sim, f flags, ticks int, done bool, global bool) {
	completed := 0
	for v := 0; v < f.n; v++ {
		switch {
		case f.alg == "spont":
			if s.Protocol(v).(*core.SpontBcast).Informed() {
				completed++
			}
		case global:
			if s.FirstDecode(v) >= 0 {
				completed++
			}
		case s.FirstMassDelivery(v) >= 0:
			completed++
		}
	}
	goal := "mass-delivered"
	if global {
		goal = "informed"
	}
	fmt.Printf("alg=%s model=%s n=%d seed=%d\n", f.alg, f.model, f.n, f.seed)
	fmt.Printf("  done=%v ticks=%d %s=%d/%d alive=%d\n",
		done, ticks, goal, completed, f.n, s.AliveCount())
	fmt.Printf("  transmissions=%d mass-deliveries=%d\n",
		s.TotalTransmissions(), s.TotalMassDeliveries())
}
