package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// dualProto transmits with a seed-determined probability and hops channels,
// exercising every SlotEvent field across the scenario matrix.
type dualProto struct {
	p     float64
	nchan int
}

func (d *dualProto) Act(n *sim.Node, slot int) sim.Action {
	act := sim.Action{
		Transmit: n.RNG.Bernoulli(d.p),
		Msg:      sim.Message{Kind: 1, Data: int64(n.ID)},
	}
	if d.nchan > 1 {
		act.Channel = int32(n.RNG.Intn(d.nchan))
	}
	return act
}

func (d *dualProto) Observe(n *sim.Node, slot int, obs *sim.Observation) {}

func (d *dualProto) TransmitProb() float64 { return d.p }

// dualInjector is a deterministic pure-function fault injector (the same
// discipline as internal/sim's diffInjector; internal/faults cannot be
// imported here without a cycle).
type dualInjector struct{ seed uint64 }

func (d *dualInjector) hash(a, b, c uint64) uint64 {
	x := d.seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func (d *dualInjector) BeginTick(s *sim.Sim, tick int) {
	for v := 0; v < s.N(); v++ {
		switch d.hash(1, uint64(v), uint64(tick)) % 97 {
		case 0:
			s.Kill(v)
		case 1:
			s.Revive(v)
		}
	}
}

func (d *dualInjector) Seized(v, tick int) (sim.Action, bool) {
	if d.hash(2, uint64(v), uint64(tick))%23 == 0 {
		return sim.Action{Transmit: true, Msg: sim.Message{Kind: 99}}, true
	}
	return sim.Action{}, false
}

func (d *dualInjector) DropRecv(u, v, tick int) bool {
	return d.hash(3, uint64(u)<<20|uint64(v), uint64(tick))%31 == 0
}

func (d *dualInjector) Observation(v, tick int, obs *sim.Observation) {
	if d.hash(4, uint64(v), uint64(tick))%41 == 0 {
		obs.Busy = !obs.Busy
	}
}

// dualScenario is one cell of the dual-format matrix: models × channels ×
// faults × churn, mirroring TestGridScanEquivalence's coverage.
type dualScenario struct {
	name     string
	n, ticks int
	seed     uint64
	model    func() model.Model
	channels int
	churn    bool
	inject   bool
	prims    sim.Primitives
}

// dualScenarioMatrix is the shared scenario matrix of the trace-layer
// differential suites (dual-format equivalence here, query/scan equivalence
// in query_test.go).
func dualScenarioMatrix() []dualScenario {
	return []dualScenario{
		{name: "udg", n: 180, ticks: 150, seed: 1,
			model: func() model.Model { return model.NewUDG(10) },
			prims: sim.CD | sim.ACK | sim.NTD},
		{name: "sinr", n: 180, ticks: 150, seed: 2,
			model: func() model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: sim.CD | sim.ACK},
		{name: "qudg", n: 180, ticks: 150, seed: 3,
			model: func() model.Model { return model.NewQUDG(7, 11, nil) },
			prims: sim.CD},
		{name: "protocol-channels", n: 180, ticks: 150, seed: 4, channels: 3,
			model: func() model.Model { return model.NewProtocol(9, 13) },
			prims: sim.FreeAck},
		{name: "churn", n: 180, ticks: 180, seed: 5, churn: true,
			model: func() model.Model { return model.NewUDG(10) },
			prims: sim.CD | sim.ACK},
		{name: "faults", n: 180, ticks: 180, seed: 6, inject: true,
			model: func() model.Model { return model.NewUDG(10) },
			prims: sim.CD | sim.ACK},
		{name: "faults-churn-channels", n: 180, ticks: 180, seed: 7,
			inject: true, churn: true, channels: 2,
			model: func() model.Model { return model.NewUDG(10) },
			prims: sim.CD | sim.ACK | sim.NTD},
	}
}

// runDualScenario runs one matrix cell's simulation, feeding every slot
// event to observe.
func runDualScenario(t testing.TB, sc dualScenario, observe func(sim.SlotEvent)) {
	t.Helper()
	side := workload.SideForDegree(sc.n, 12, 10)
	pts := workload.UniformDisc(sc.n, side, sc.seed)
	cfg := sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: sc.model(),
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: sim.Options{
			Seed:       sc.seed,
			Primitives: sc.prims,
			Channels:   sc.channels,
			Observer:   observe,
		},
	}
	if sc.inject {
		cfg.Injector = &dualInjector{seed: sc.seed ^ 0xfa017}
	}
	s, err := sim.New(cfg, func(int) sim.Protocol {
		return &dualProto{p: 0.05, nchan: sc.channels}
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := rng.New(sc.seed ^ 0xd21f)
	for i := 0; i < sc.ticks; i++ {
		if sc.churn {
			if drv.Bernoulli(0.08) {
				s.Kill(drv.Intn(sc.n))
			}
			if drv.Bernoulli(0.08) {
				s.Revive(drv.Intn(sc.n))
			}
		}
		s.Step()
	}
}

// TestBinaryJSONLEquivalence is the differential dual-format suite: each
// scenario's run is recorded once, with the observer teeing every event
// into a JSONL recorder and a binary recorder, and the two decodings must
// be byte-for-byte identical after normalization. JSONL is the reference
// implementation; any packing bug in the binary path shows up as a diverged
// stream.
func TestBinaryJSONLEquivalence(t *testing.T) {
	for _, sc := range dualScenarioMatrix() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var jb, bb bytes.Buffer
			jw := NewJSONL(&jb)
			bw := NewBinary(&bb)

			runDualScenario(t, sc, func(ev sim.SlotEvent) {
				jw.Record(ev)
				bw.Record(ev)
			})
			if err := jw.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if jw.Events() == 0 {
				t.Fatal("scenario produced no events; the comparison is vacuous")
			}
			if jw.Events() != bw.Events() {
				t.Fatalf("recorders disagree: jsonl=%d binary=%d events", jw.Events(), bw.Events())
			}

			jev, jf, err := ReadEvents(bytes.NewReader(jb.Bytes()))
			if err != nil || jf != FormatJSONL {
				t.Fatalf("jsonl decode: format=%v err=%v", jf, err)
			}
			bev, bf, err := ReadEvents(bytes.NewReader(bb.Bytes()))
			if err != nil || bf != FormatBinary {
				t.Fatalf("binary decode: format=%v err=%v", bf, err)
			}
			ja, _ := json.Marshal(Canonicalize(jev))
			ba, _ := json.Marshal(Canonicalize(bev))
			if !bytes.Equal(ja, ba) {
				i := 0
				for ; i < len(jev) && i < len(bev); i++ {
					a, _ := json.Marshal(jev[i])
					b, _ := json.Marshal(bev[i])
					if !bytes.Equal(a, b) {
						break
					}
				}
				t.Fatalf("decoded streams diverge at event %d of %d", i, len(jev))
			}

			if sc.inject {
				seized := false
				for _, ev := range bev {
					if ev.Seized > 0 {
						seized = true
						break
					}
				}
				if !seized {
					t.Fatal("fault scenario surfaced no seized transmitters in the trace")
				}
			}
			if bb.Len() >= jb.Len() {
				t.Fatalf("binary trace (%d bytes) not smaller than JSONL (%d bytes)", bb.Len(), jb.Len())
			}
		})
	}
}
