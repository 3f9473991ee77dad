package sim

import (
	"testing"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// countingProto counts its Act and Observe calls.
type countingProto struct {
	acts, observes int
}

func (p *countingProto) Act(n *Node, slot int) Action {
	p.acts++
	return Action{}
}

func (p *countingProto) Observe(n *Node, slot int, obs *Observation) {
	p.observes++
}

func TestActObservePaired(t *testing.T) {
	// Every Act is followed by exactly one Observe, across sync, two-slot
	// and async modes.
	cases := map[string]Config{
		"sync":    lineConfig(),
		"twoslot": func() Config { c := lineConfig(); c.Slots = 2; return c }(),
		"async":   func() Config { c := lineConfig(); c.Async = true; return c }(),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg, func(int) Protocol { return &countingProto{} })
			if err != nil {
				t.Fatal(err)
			}
			s.Run(37)
			for v := 0; v < s.N(); v++ {
				p := s.Protocol(v).(*countingProto)
				if p.acts != p.observes {
					t.Fatalf("node %d: %d acts, %d observes", v, p.acts, p.observes)
				}
				if p.acts == 0 {
					t.Fatalf("node %d never acted", v)
				}
			}
		})
	}
}

func TestChurnDuringTwoSlotRounds(t *testing.T) {
	// Killing a node between slot 0 and slot 1 must not corrupt the round:
	// the survivor keeps acting and invariants hold.
	cfg := lineConfig()
	cfg.Slots = 2
	s, err := New(cfg, func(int) Protocol { return &countingProto{} })
	if err != nil {
		t.Fatal(err)
	}
	s.Step() // slot 0
	s.Kill(1)
	s.Step() // slot 1 with node 1 gone mid-round
	s.Step()
	p1 := s.Protocol(1).(*countingProto)
	if p1.acts != 1 {
		t.Fatalf("dead node acted %d times, want 1 (slot 0 only)", p1.acts)
	}
	s.Revive(1)
	s.Step()
	if got := s.Protocol(1).(*countingProto); got.acts != 1 {
		t.Fatalf("revived node has a fresh protocol; acts = %d, want 1", got.acts)
	}
}

func TestAsyncChurnInterleaving(t *testing.T) {
	// Random kills/revives interleaved with async rounds keep all counters
	// and pairings consistent (panic/corruption regression test).
	pts := workload.UniformDisc(40, 25, 3)
	cfg := Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:       5,
			Async:      true,
			Primitives: CD | ACK,
		},
	}
	s, err := New(cfg, func(int) Protocol { return fixedProb(0.2) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			s.Kill(i % 40)
		}
		if i%5 == 0 {
			s.Revive((i + 7) % 40)
		}
		s.Step()
	}
	var total int64
	for v := 0; v < 40; v++ {
		total += int64(s.Transmissions(v))
	}
	if total != s.TotalTransmissions() {
		t.Fatalf("counter drift: %d vs %d", total, s.TotalTransmissions())
	}
}
