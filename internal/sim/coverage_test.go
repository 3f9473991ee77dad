package sim

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
)

func TestCoverageDisabledByDefault(t *testing.T) {
	s := newSim(t, lineConfig(), map[int]map[int]bool{0: {0: true}})
	s.Step()
	if s.FirstFullCoverage(0) != -1 || s.CoverageCount(0) != 0 {
		t.Fatal("coverage must be inert when not tracked")
	}
}

func TestCoverageAccumulatesAcrossSlots(t *testing.T) {
	// Node 1 has neighbours 0 and 2 (RB = 1.8). It transmits at ticks 0 and
	// 2; at tick 0 node 2 is also transmitting (half-duplex, misses it), at
	// tick 2 node 2 listens. Full coverage is reached at tick 2 even though
	// no single slot was an atomic mass delivery.
	cfg := lineConfig()
	cfg.TrackCoverage = true
	s := newSim(t, cfg, map[int]map[int]bool{
		1: {0: true, 2: true},
		2: {0: true},
	})
	s.Step()
	// Tick 0: 1 and 2 transmit. Node 0 is within range of 1 only (d(2,0)=2
	// = R with strict SINR → interference from 2 at node 0 is modest; node
	// 0 may or may not decode under the combined interference).
	s.Step() // tick 1: silence
	s.Step() // tick 2: node 1 transmits alone: both neighbours decode
	if got := s.FirstFullCoverage(1); got != 2 {
		t.Fatalf("FirstFullCoverage(1) = %d, want 2", got)
	}
	if s.CoverageCount(1) < 2 {
		t.Fatalf("CoverageCount(1) = %d", s.CoverageCount(1))
	}
}

func TestCoverageMatchesMassDeliveryOnCleanSlot(t *testing.T) {
	cfg := lineConfig()
	cfg.TrackCoverage = true
	s := newSim(t, cfg, map[int]map[int]bool{0: {0: true}})
	s.Step()
	// Node 0's only RB-neighbour is node 1; a clean slot covers it at once.
	if s.FirstFullCoverage(0) != 0 {
		t.Fatalf("FirstFullCoverage(0) = %d", s.FirstFullCoverage(0))
	}
	if s.FirstMassDelivery(0) != 0 {
		t.Fatal("atomic mass delivery must also be recorded")
	}
}

func TestCoverageUnderRayleigh(t *testing.T) {
	// Under fading, atomic mass delivery may take many slots while
	// cumulative coverage completes quickly — the metric the fading
	// experiment relies on.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1.2, Y: 0}, {X: -1.2, Y: 0}}
	cfg := Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewRayleighSINR(8, 1, 1, 3, 0.1, 5),
		P:     8, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed:          1,
			TrackCoverage: true,
		},
	}
	always := map[int]bool{}
	for i := 0; i < 500; i++ {
		always[i] = true
	}
	s, err := New(cfg, func(id int) Protocol {
		if id == 0 {
			return &scriptProto{transmitAt: always}
		}
		return &scriptProto{}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(500)
	if s.FirstFullCoverage(0) < 0 {
		t.Fatal("500 faded slots should cumulatively cover both neighbours")
	}
}
