package core

import (
	"testing"

	"udwn/internal/rng"
	"udwn/internal/sim"
)

func TestMCLocalBcastChannelSpread(t *testing.T) {
	m := NewMCLocalBcast(64, 4, 1)
	n := &sim.Node{ID: 0, RNG: rng.New(1)}
	seen := map[int32]int{}
	for i := 0; i < 4000; i++ {
		act := m.Act(n, 0)
		if act.Channel < 0 || act.Channel >= 4 {
			t.Fatalf("channel out of range: %d", act.Channel)
		}
		seen[act.Channel]++
	}
	for ch := int32(0); ch < 4; ch++ {
		if seen[ch] < 800 || seen[ch] > 1200 {
			t.Fatalf("channel %d picked %d/4000 times; want ~uniform", ch, seen[ch])
		}
	}
}

// TestMCLocalBcastSingleChannel pins that one channel is plain LocalBcast:
// the same actions from the same coin flips, with no channel draw.
func TestMCLocalBcastSingleChannel(t *testing.T) {
	m, l := NewMCLocalBcast(64, 1, 1), NewLocalBcast(64, 1)
	nm, nl := &sim.Node{ID: 0, RNG: rng.New(2)}, &sim.Node{ID: 0, RNG: rng.New(2)}
	for i := 0; i < 100; i++ {
		am, al := m.Act(nm, 0), l.Act(nl, 0)
		if am.Channel != 0 {
			t.Fatal("single-channel variant must stay on channel 0")
		}
		if am != al {
			t.Fatalf("act %d: single-channel variant %+v, LocalBcast %+v", i, am, al)
		}
		obs := &sim.Observation{Busy: i%3 == 0}
		m.Observe(nm, 0, obs)
		l.Observe(nl, 0, obs)
	}
}

func TestMCLocalBcastBackoffAndStop(t *testing.T) {
	m := NewMCLocalBcast(64, 2, 1)
	n := &sim.Node{ID: 0, RNG: rng.New(3)}
	p0 := m.TransmitProb()
	m.Observe(n, 0, &sim.Observation{Busy: false})
	if m.TransmitProb() != 2*p0 {
		t.Fatal("idle must double")
	}
	m.Observe(n, 0, &sim.Observation{Transmitted: true, Acked: true})
	if !m.Done() || m.TransmitProb() != 0 || m.Act(n, 0).Transmit {
		t.Fatal("acked node must stop")
	}
}

func TestMCLocalBcastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMCLocalBcast(10, 0, 1)
}

func TestMCLocalBcastIntegrationCoverage(t *testing.T) {
	// On a short line with 2 channels, cumulative coverage must complete
	// even though atomic deliveries are channel-split.
	const k = 6
	pts := makeLine(k)
	s, err := sim.New(sim.Config{
		Space: metricOfLine(pts),
		Model: lineModel(),
		P:     8, Zeta: 3, Eps: 0.1,
		AckScale: 8,
		Options: sim.Options{
			Seed:          9,
			Channels:      2,
			Primitives:    sim.CD | sim.ACK,
			TrackCoverage: true,
		},
	}, func(id int) sim.Protocol {
		return NewMCLocalBcast(k, 2, int64(id))
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if s.FirstFullCoverage(v) < 0 {
				return false
			}
		}
		return true
	}, 60000)
	if !ok {
		t.Fatal("multi-channel coverage did not complete")
	}
}
