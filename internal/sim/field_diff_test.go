package sim

import (
	"fmt"
	"math"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/sensing"
	"udwn/internal/workload"
)

// holdEpochs is the traffic dimension of the field differential suite:
// each node repeats its action for epoch consecutive acts, so epoch 1 draws
// fresh traffic every slot and 16 and 256 keep transmitter sets in place
// across mobility, churn, faults and retunes — the compositions an engine
// that carried sums between slots would reuse.
var holdEpochs = []int{1, 16, 256}

// canonicalField is the oracle of the field engine: receiver v's
// interference summed from scratch in the canonical order — the slot's
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

// checkField demands the engine's demand contract after a Step, while the
// slot's buffers still describe it. At every receiver in the demand set the
// engine's sum equals the oracle to the bit. Every alive receiver outside it
// is not a transmitter, lies beyond the decode cutoff of every same-channel
// transmitter, and senses Idle on the oracle's sum when CD is granted. Any
// receiver's View.TotalPower equals the oracle.
func checkField(t testing.TB, s *Sim) {
	t.Helper()
	cd := s.cfg.Primitives.Has(CD)
	for v := 0; v < s.n; v++ {
		want := canonicalField(s, v)
		if got := s.fieldAt(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tick %d receiver %d (demanded %v): field %x != canonical sum %x",
				s.tick-1, v, s.demanded(v), math.Float64bits(got), math.Float64bits(want))
		}
		if s.demanded(v) || !s.alive[v] {
			continue
		}
		if s.isTxBuf[v] {
			t.Fatalf("tick %d: transmitter %d outside the demand set", s.tick-1, v)
		}
		if cd && s.th.Busy(want) {
			t.Fatalf("tick %d: receiver %d certified idle but senses %v >= busy %v",
				s.tick-1, v, want, s.th.BusyRSS)
		}
		for _, u := range s.txBuf {
			if s.chanBuf[u] == s.chanBuf[v] && s.cfg.Space.Dist(u, v) <= s.decodeCutoff(u) {
				t.Fatalf("tick %d: receiver %d inside transmitter %d's decode cutoff but not demanded",
					s.tick-1, v, u)
			}
		}
	}
}

// fieldDiffScenarios is the scenario matrix: every model family crossed
// with channels, power scales, churn, mobility and fault injection — every
// source of composition and geometry change — under the CD|ACK, ACK-only,
// FreeAck and CD primitive mixes.
func fieldDiffScenarios() []diffScenario {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	return []diffScenario{
		{name: "udg", n: 200, ticks: 140, seed: 41,
			model: model.NewUDG(10),
			prims: CD | ACK | NTD},
		{name: "sinr", n: 200, ticks: 140, seed: 42,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK},
		{name: "sinr-lazy", n: 200, ticks: 140, seed: 43,
			// ACK without CD: only transmitters and SINR decode checks read
			// the field.
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: ACK},
		{name: "qudg-grey", n: 200, ticks: 140, seed: 44,
			model: model.NewQUDG(7, 11, grey),
			prims: CD},
		{name: "rayleigh", n: 160, ticks: 100, seed: 45,
			model: model.NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 5),
			prims: CD | ACK},
		{name: "channels-3", n: 200, ticks: 140, seed: 46, channels: 3,
			model: model.NewUDG(10),
			prims: CD},
		{name: "channels-3-sinr-lazy", n: 200, ticks: 140, seed: 47, channels: 3,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: ACK},
		{name: "power-scales", n: 200, ticks: 140, seed: 48, scales: true,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK},
		{name: "churn", n: 200, ticks: 160, seed: 49, churn: true,
			model: model.NewUDG(10),
			prims: CD | ACK},
		{name: "mobility", n: 200, ticks: 160, seed: 50, dynamic: true,
			model: model.NewUDG(10),
			prims: CD | ACK},
		{name: "mobility-sinr-scales", n: 160, ticks: 120, seed: 51, dynamic: true, scales: true,
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: CD | ACK | NTD},
		{name: "faults", n: 200, ticks: 160, seed: 52, inject: true, dynamic: true,
			model: model.NewUDG(10),
			prims: CD | ACK},
		{name: "sinr-freeack", n: 200, ticks: 140, seed: 53, channels: 2, scales: true,
			// FreeAck: only SINR decode checks read the field.
			model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			prims: FreeAck},
	}
}

// TestIncrementalFieldEquivalence is the differential suite of the
// interference field: for every scenario and traffic hold period, checkField
// must hold after every slot. The ramp scenario adds persistent transmitters
// one at a time in ascending id order. Short mode runs a curated subset; the
// full matrix runs otherwise (and raced in ci.sh).
func TestIncrementalFieldEquivalence(t *testing.T) {
	scenarios := fieldDiffScenarios()
	epochs := holdEpochs
	if testing.Short() {
		scenarios = []diffScenario{scenarios[1], scenarios[2], scenarios[5], scenarios[9],
			scenarios[11], scenarios[12]}
		epochs = []int{1, 256}
	}
	for _, sc := range scenarios {
		for _, epoch := range epochs {
			sc := sc
			sc.hold = epoch
			t.Run(fmt.Sprintf("%s/epoch%d", sc.name, epoch), func(t *testing.T) {
				runDiffWatch(t, sc, false, func(s *Sim) func() {
					return func() { checkField(t, s) }
				})
			})
		}
	}
	t.Run("ramp", func(t *testing.T) {
		s := newFieldTestSimProto(t, 120, 71, CD|ACK, func(id int) Protocol {
			return &rampProto{id: id}
		})
		for i := 0; i < 90; i++ {
			s.Step()
			checkField(t, s)
		}
	})
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

// TestIncrementalFieldModesExercised guards the differential suite against
// vacuity: under CD|ACK, ACK, CD and FreeAck, sparse traffic must produce
// subset slots that sum fewer than n receivers and dense traffic slots that
// sum every receiver; the counters must add up; and a run that never reads
// the field must build no engine.
func TestIncrementalFieldModesExercised(t *testing.T) {
	const n = 400
	run := func(prims Primitives, p float64) (subset, all int, st FieldStats) {
		t.Helper()
		s := newFieldTestSim(t, n, 61, prims, p)
		var summed int64
		for i := 0; i < 400; i++ {
			s.Step()
			checkField(t, s)
			switch {
			case s.fieldAll:
				all++
				summed += n
			case len(s.demandList) < n:
				subset++
				summed += int64(len(s.demandList))
			default:
				t.Fatalf("prims %b: subset slot summed all %d receivers", prims, n)
			}
		}
		st = s.FieldStats()
		if st.RebuildSlots != int64(all) || st.SubsetSlots != int64(subset) || st.SummedReceivers != summed {
			t.Errorf("prims %b: stats %+v, observed %d all-receiver and %d subset slots summing %d",
				prims, st, all, subset, summed)
		}
		if got := s.FieldStats(); got != st {
			t.Errorf("FieldStats accessor unstable: %+v vs %+v", got, st)
		}
		return subset, all, st
	}

	for _, prims := range []Primitives{CD | ACK, ACK, CD, FreeAck} {
		if subset, _, st := run(prims, 0.002); subset == 0 {
			t.Errorf("prims %b: sparse traffic produced no subset slots (stats %+v)", prims, st)
		}
		if _, all, st := run(prims, 0.05); all == 0 {
			t.Errorf("prims %b: dense traffic produced no all-receiver slots (stats %+v)", prims, st)
		}
	}
}

// TestFieldCertifiedIdleBoundary pins the certified-idle radius from both
// sides. k transmitters sit on a circle around a CD listener that lies
// beyond every decode cutoff. Just outside the demand radius ρ (the index
// query, inflated by indexSlack) the listener must be left out of the
// demand set and read Idle; just inside ρ it must be demanded. Either way
// its observed Busy equals the threshold test on the canonical sum.
func TestFieldCertifiedIdleBoundary(t *testing.T) {
	const p, zeta, eps = 1500.0, 3.0, 0.1
	mdl := model.NewSINR(p, 1.5, 1, zeta, eps)
	th := sensing.NewThresholds(p, zeta, eps, mdl.R(), mdl.Params())
	for _, k := range []int{3, 16} {
		rho := math.Pow(p*float64(k)*(1+idleDelta)/th.BusyRSS, 1/zeta)
		if rho <= mdl.MaxDecodeRange() {
			t.Fatalf("k=%d: ρ=%v inside the decode cutoff %v", k, rho, mdl.MaxDecodeRange())
		}
		for _, c := range []struct {
			name   string
			radius float64
			demand bool
		}{
			{"outside", rho * indexSlack * (1 + 1e-9), false},
			{"inside", rho * (1 - 1e-9), true},
		} {
			t.Run(fmt.Sprintf("k%d/%s", k, c.name), func(t *testing.T) {
				// Node 0 is the listener at the origin, nodes 1..k the
				// transmitters; four silent corner nodes widen the grid so
				// the transmitters' query boxes stay within the cell budget.
				pts := []geom.Point{{}}
				for i := 0; i < k; i++ {
					a := 2 * math.Pi * float64(i) / float64(k)
					pts = append(pts, geom.Point{X: c.radius * math.Cos(a), Y: c.radius * math.Sin(a)})
				}
				for _, q := range []geom.Point{{X: -500, Y: -500}, {X: 500, Y: -500}, {X: -500, Y: 500}, {X: 500, Y: 500}} {
					pts = append(pts, q)
				}
				lis := &busyProbe{}
				s, err := New(Config{
					Space: metric.NewEuclidean(pts),
					Model: mdl,
					P:     p, Zeta: zeta, Eps: eps,
					Options: Options{
						Seed:       7,
						Primitives: CD,
					},
				}, func(id int) Protocol {
					switch {
					case id == 0:
						return lis
					case id <= k:
						return fixedProb(1)
					}
					return fixedProb(0)
				})
				if err != nil {
					t.Fatal(err)
				}
				s.Step()
				checkField(t, s)
				if s.fieldAll {
					t.Fatal("slot summed every receiver; the boundary is untested")
				}
				if got := s.demanded(0); got != c.demand {
					t.Fatalf("listener demanded = %v, want %v", got, c.demand)
				}
				if want := th.Busy(canonicalField(s, 0)); !lis.observed || lis.busy != want {
					t.Fatalf("listener observed %v busy=%v, want busy=%v", lis.observed, lis.busy, want)
				}
				if !c.demand && lis.busy {
					t.Fatal("undemanded listener read Busy")
				}
			})
		}
	}
}

// TestFloorReachBoundary pins the SINR walk radius from both sides. A lone
// transmitter at the origin reaches listeners on a ray, the farthest at
// (1 − 1e-7)·R, just inside the decode cutoff R: it holds the channel's
// smallest sum, so its own decode floor sets the reach. It must still
// decode, and the walk must narrow below R to within 1e-7 of its distance.
// Four far silent corner nodes make the slot a subset slot, whose minimum
// comes from the demand set; without them the slot sums every receiver.
func TestFloorReachBoundary(t *testing.T) {
	mdl := model.NewSINR(1500, 1.5, 1, 3, 0.1)
	far := mdl.R() * (1 - 1e-7)
	for _, subset := range []bool{false, true} {
		t.Run(fmt.Sprintf("subset=%v", subset), func(t *testing.T) {
			pts := []geom.Point{{}, {X: 0.2 * mdl.R()}, {X: 0.5 * mdl.R()}, {X: 0.8 * mdl.R()}, {X: far}}
			if subset {
				pts = append(pts, geom.Point{X: -500, Y: -500}, geom.Point{X: 500, Y: -500},
					geom.Point{X: -500, Y: 500}, geom.Point{X: 500, Y: 500})
			}
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: mdl,
				P:     1500, Zeta: 3, Eps: 0.1,
				Options: Options{Seed: 7},
			}, func(id int) Protocol {
				if id == 0 {
					return fixedProb(1)
				}
				return fixedProb(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Step()
			if s.fieldAll == subset {
				t.Fatalf("fieldAll = %v, want %v", s.fieldAll, !subset)
			}
			if !s.heardFrom(4, 0) {
				t.Fatalf("the listener at %v does not hold the transmitter's frame", far)
			}
			if r := s.decodeRadius(0); !(r >= far && r <= far*(1+1e-7) && r < s.decodeCutoff(0)) {
				t.Fatalf("walk radius %v, want within [%v, %v] and below the cutoff %v",
					r, far, far*(1+1e-7), s.decodeCutoff(0))
			}
		})
	}
}

// busyProbe is a silent protocol recording its last CD outcome.
type busyProbe struct {
	observed, busy bool
}

func (b *busyProbe) Act(*Node, int) Action { return Action{} }

func (b *busyProbe) Observe(_ *Node, _ int, obs *Observation) {
	b.observed, b.busy = true, obs.Busy
}

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
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       seed,
			Primitives: prims,
		},
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
