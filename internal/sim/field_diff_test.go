package sim

import (
	"fmt"
	"math"
	"testing"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// fieldEpochs is the epoch matrix of the incremental-field differential
// suite: per-slot rebuild (degenerate), a short rail and the default rail.
var fieldEpochs = []int{1, 16, defaultFieldEpoch}

// canonicalField is the oracle of the incremental field engine: receiver
// v's interference summed from scratch in the canonical order — the slot's
// transmitters (txBuf, ascending) on v's channel, each contributing
// Power·scale.
func canonicalField(s *Sim, v int) float64 {
	total := 0.0
	for _, w := range s.txBuf {
		if s.chanBuf[w] == s.chanBuf[v] {
			total += s.field.Power(w, v) * s.scaleBuf[w]
		}
	}
	return total
}

// checkField demands that the engine's accumulator equal the oracle to the
// bit at every receiver; called after a Step, while the slot's buffers
// still describe it.
func checkField(t testing.TB, s *Sim) {
	t.Helper()
	if s.accSlot == nil {
		t.Fatal("run has no field engine — the field check is vacuous")
	}
	for v := 0; v < s.n; v++ {
		got, want := math.Float64bits(s.totalPower[v]), math.Float64bits(canonicalField(s, v))
		if got != want {
			t.Fatalf("tick %d receiver %d: engine field %x != canonical sum %x",
				s.tick-1, v, got, want)
		}
	}
}

// fieldDiffScenarios is the scenario matrix: every model family crossed
// with channels, power scales, churn, mobility and fault injection — the
// full set of composition-mutation sources the incremental engine diffs —
// under the CD|ACK, ACK-only, FreeAck and CD primitive mixes.
func fieldDiffScenarios() []diffScenario {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	return []diffScenario{
		{name: "udg", n: 200, ticks: 140, seed: 41,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK | NTD},
		{name: "sinr", n: 200, ticks: 140, seed: 42,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK},
		{name: "sinr-lazy", n: 200, ticks: 140, seed: 43,
			// ACK without CD: only transmitters and SINR decode checks read
			// the field.
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: ACK},
		{name: "qudg-grey", n: 200, ticks: 140, seed: 44,
			model: func(func() int) model.Model { return model.NewQUDG(7, 11, grey) },
			prims: CD},
		{name: "rayleigh", n: 160, ticks: 100, seed: 45,
			model: func(tick func() int) model.Model {
				return model.NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 5, tick)
			},
			prims: CD | ACK},
		{name: "channels-3", n: 200, ticks: 140, seed: 46, channels: 3,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD},
		{name: "channels-3-sinr-lazy", n: 200, ticks: 140, seed: 47, channels: 3,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: ACK},
		{name: "power-scales", n: 200, ticks: 140, seed: 48, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK},
		{name: "churn", n: 200, ticks: 160, seed: 49, churn: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "mobility", n: 200, ticks: 160, seed: 50, dynamic: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "mobility-sinr-scales", n: 160, ticks: 120, seed: 51, dynamic: true, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK | NTD},
		{name: "faults", n: 200, ticks: 160, seed: 52, inject: true, dynamic: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "sinr-freeack", n: 200, ticks: 140, seed: 53, channels: 2, scales: true,
			// FreeAck: only SINR decode checks read the field.
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: FreeAck},
	}
}

// TestIncrementalFieldEquivalence is the differential suite of the
// incremental interference field: for every scenario and epoch, the
// engine's accumulator must equal the canonical sum from scratch to the
// bit at every receiver after every slot. Short mode runs a curated subset;
// the full matrix runs otherwise (and raced in ci.sh).
func TestIncrementalFieldEquivalence(t *testing.T) {
	scenarios := fieldDiffScenarios()
	epochs := fieldEpochs
	if testing.Short() {
		scenarios = []diffScenario{scenarios[1], scenarios[2], scenarios[5], scenarios[9],
			scenarios[11], scenarios[12]}
		epochs = []int{1, defaultFieldEpoch}
	}
	for _, sc := range scenarios {
		for _, epoch := range epochs {
			sc, epoch := sc, epoch
			t.Run(fmt.Sprintf("%s/epoch%d", sc.name, epoch), func(t *testing.T) {
				runDiffWatch(t, sc, false, func(s *Sim) func() {
					s.fieldEpoch = epoch
					return func() { checkField(t, s) }
				})
			})
		}
	}
}

// TestIncrementalFieldModesExercised guards the differential suite against
// vacuity: a static scenario must hit the reuse/delta/rebuild paths under
// both CD (every node senses the field) and ACK alone (only transmitters
// and decode checks read it), the epoch rail must fire, and a run that
// never reads the field must build no engine.
func TestIncrementalFieldModesExercised(t *testing.T) {
	run := func(prims Primitives, epoch int, p float64) (*Sim, FieldStats) {
		t.Helper()
		s := newFieldTestSim(t, 160, 61, prims, p)
		s.fieldEpoch = epoch
		for i := 0; i < 400; i++ {
			s.Step()
			checkField(t, s)
		}
		return s, s.FieldStats()
	}

	// p=0.01 keeps ~20% of slots transmitter-free, so consecutive empty
	// compositions (the reuse path) and empty→nonempty appends both occur.
	for _, prims := range []Primitives{CD | ACK, ACK} {
		s, st := run(prims, defaultFieldEpoch, 0.01)
		if st.RebuildSlots == 0 {
			t.Errorf("prims %b: no rebuild slots (stats %+v)", prims, st)
		}
		if st.ReusedSlots == 0 {
			t.Errorf("prims %b: no reused slots — sparse tx should repeat compositions (stats %+v)", prims, st)
		}
		if st.DeltaSlots == 0 {
			t.Errorf("prims %b: no delta slots (stats %+v)", prims, st)
		}
		if st.EpochRebuilds == 0 {
			t.Errorf("prims %b: epoch rail never fired (stats %+v)", prims, st)
		}
		if got := s.FieldStats(); got != st {
			t.Errorf("FieldStats accessor unstable: %+v vs %+v", got, st)
		}
	}

	// Epoch 1 degenerates to a rebuild every slot.
	_, st := run(CD|ACK, 1, 0.01)
	if st.ReusedSlots != 0 || st.DeltaSlots != 0 || st.RebuildSlots != 0 {
		t.Errorf("epoch-1 run: non-epoch slots present (stats %+v)", st)
	}
	if st.EpochRebuilds == 0 {
		t.Errorf("epoch-1 run: no epoch rebuilds (stats %+v)", st)
	}

	// A field-oblivious model without power-sensing primitives has no
	// engine at all.
	pts := workload.UniformDisc(160, workload.SideForDegree(160, 16, 10), 61)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewUDG(10),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:       61,
		Primitives: NTD | FreeAck,
	}, func(int) Protocol { return fixedProb(0.01) })
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if s.accSlot != nil || s.FieldStats() != (FieldStats{}) {
		t.Errorf("field-oblivious run built a field engine: %+v", s.FieldStats())
	}
}

// TestFieldAppendPath pins the append fast path: a monotone-id set of
// persistent transmitters (each new transmitter id above every previous
// one) must resolve through delta slots, bit-identically to the canonical
// sum.
func TestFieldAppendPath(t *testing.T) {
	s := newFieldTestSimProto(t, 120, 71, CD|ACK, func(id int) Protocol {
		// Node id starts transmitting at tick 3*id and never stops:
		// additions arrive in ascending id order, one at a time.
		return &rampProto{id: id}
	})
	for i := 0; i < 90; i++ {
		s.Step()
		checkField(t, s)
	}
	if st := s.FieldStats(); st.DeltaSlots == 0 {
		t.Errorf("append path never taken: %+v", st)
	}
}

// rampProto makes node id a persistent transmitter from tick 3*id on.
type rampProto struct {
	id, t int
}

func (r *rampProto) Act(n *Node, slot int) Action {
	t := r.t
	r.t++
	if t >= 3*r.id {
		return Action{Transmit: true, Msg: Message{Kind: 7, Data: int64(r.id)}}
	}
	return Action{}
}

func (r *rampProto) Observe(n *Node, slot int, obs *Observation) {}

// newFieldTestSim builds a static SINR sim with fixed-probability traffic.
func newFieldTestSim(t *testing.T, n int, seed uint64, prims Primitives, p float64) *Sim {
	t.Helper()
	return newFieldTestSimProto(t, n, seed, prims, func(int) Protocol { return fixedProb(p) })
}

func newFieldTestSimProto(t *testing.T, n int, seed uint64, prims Primitives,
	factory ProtocolFactory) *Sim {
	t.Helper()
	pts := workload.UniformDisc(n, workload.SideForDegree(n, 16, 9), seed)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:       seed,
		Primitives: prims,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
