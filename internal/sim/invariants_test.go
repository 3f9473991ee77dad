package sim

import (
	"testing"
	"testing/quick"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/workload"
)

// recorder wraps fixedProb and keeps every observation for invariant checks.
type recorder struct {
	p   float64
	obs []Observation
}

func (r *recorder) Act(n *Node, slot int) Action {
	return Action{Transmit: n.RNG.Bernoulli(r.p), Msg: Message{Kind: 1, Data: int64(n.ID)}}
}

func (r *recorder) Observe(n *Node, slot int, obs *Observation) {
	cp := *obs
	cp.Received = append([]Recv(nil), obs.Received...)
	r.obs = append(r.obs, cp)
}

// TestSimInvariants drives random configurations and checks structural
// invariants of every slot:
//
//  1. half-duplex: a transmitter never receives;
//  2. provenance: every received message was sent by a transmitter of that
//     slot, from within decoding range;
//  3. ACK soundness: an ACK in a slot implies the sim recorded a mass
//     delivery for that node in that slot;
//  4. counters: total transmissions equal the sum of per-node counts.
func TestSimInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 16 + r.Intn(48)
		pts := workload.UniformDisc(n, 25, seed)
		var mdl model.Model
		if r.Bernoulli(0.5) {
			mdl = model.NewSINR(1500, 1.5, 1, 3, 0.1)
		} else {
			mdl = model.NewUDG(10)
		}
		s, err := New(Config{
			Space: metric.NewEuclidean(pts),
			Model: mdl,
			P:     1500, Zeta: 3, Eps: 0.1,
			Options: Options{
				Seed:       seed,
				Async:      r.Bernoulli(0.3),
				Primitives: CD | ACK | NTD,
			},
		}, func(int) Protocol { return &recorder{p: 0.2} })
		if err != nil {
			return false
		}
		const ticks = 40
		s.Run(ticks)

		var totalTx int64
		for v := 0; v < n; v++ {
			rec := s.Protocol(v).(*recorder)
			tx := 0
			for _, o := range rec.obs {
				if o.Transmitted {
					tx++
					if len(o.Received) != 0 {
						return false // half-duplex violated
					}
					if o.Acked && s.FirstMassDelivery(v) < 0 {
						return false // ACK without any recorded delivery
					}
				}
				for _, rc := range o.Received {
					if rc.From == v {
						return false // self-reception
					}
					if rc.Msg.Data != int64(rc.From) {
						return false // provenance: payload carries sender id
					}
					if s.Space().Dist(rc.From, v) > mdl.R()+1e-9 {
						return false // decode beyond the model's range
					}
				}
			}
			if tx != s.Transmissions(v) {
				return false // per-node counter mismatch
			}
			totalTx += int64(tx)
		}
		return totalTx == s.TotalTransmissions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMassDeliveryConsistency: whenever the sim records a mass delivery for
// u at tick t, every alive neighbour of u must have that tick at or after
// its first-decode time.
func TestMassDeliveryConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 12 + r.Intn(24)
		pts := workload.UniformDisc(n, 20, seed^0x77)
		s, err := New(Config{
			Space: metric.NewEuclidean(pts),
			Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			P:     1500, Zeta: 3, Eps: 0.1,
			Options: Options{Seed: seed},
		}, func(int) Protocol { return &recorder{p: 0.15} })
		if err != nil {
			return false
		}
		s.Run(60)
		for u := 0; u < n; u++ {
			mt := s.FirstMassDelivery(u)
			if mt < 0 {
				continue
			}
			for _, v := range s.Neighbors(u) {
				fd := s.FirstDecode(v)
				if fd < 0 || fd > mt {
					return false // neighbour decoded nothing by then
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageSupersetOfMass: with coverage tracking, an atomic mass
// delivery implies full coverage by the same tick.
func TestCoverageSupersetOfMass(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 12 + r.Intn(24)
		pts := workload.UniformDisc(n, 20, seed^0x99)
		s, err := New(Config{
			Space: metric.NewEuclidean(pts),
			Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			P:     1500, Zeta: 3, Eps: 0.1,
			Options: Options{
				Seed:          seed,
				TrackCoverage: true,
			},
		}, func(int) Protocol { return &recorder{p: 0.15} })
		if err != nil {
			return false
		}
		s.Run(60)
		for u := 0; u < n; u++ {
			mt := s.FirstMassDelivery(u)
			ct := s.FirstFullCoverage(u)
			if mt >= 0 && (ct < 0 || ct > mt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
