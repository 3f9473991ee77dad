package model

import (
	"math"
	"testing"

	"udwn/internal/metric"
)

func TestRayleighDeterministicPerTick(t *testing.T) {
	m := NewRayleighSINR(8, 1, 1, 3, 0.1, 7)
	space := metric.NewMatrix(2, 1.5)
	v := newFakeView(space, 8, 3, []int{0})
	a := m.Decodes(v, 0, 1)
	b := m.Decodes(v, 0, 1)
	if a != b {
		t.Fatal("same tick must fade identically (replayability)")
	}
}

func TestRayleighVariesAcrossTicks(t *testing.T) {
	// At a distance near R, the faded decode outcome must vary over ticks:
	// sometimes up-fade succeeds, sometimes down-fade fails.
	m := NewRayleighSINR(8, 1, 1, 3, 0.1, 7)
	space := metric.NewMatrix(2, 1.9)
	v := newFakeView(space, 8, 3, []int{0})
	succ := 0
	const trials = 400
	for v.tick = 0; v.tick < trials; v.tick++ {
		if m.Decodes(v, 0, 1) {
			succ++
		}
	}
	if succ == 0 || succ == trials {
		t.Fatalf("fading should make decode stochastic near R: %d/%d", succ, trials)
	}
}

func TestRayleighUpFadeBeyondMeanRange(t *testing.T) {
	// Beyond the mean-field range R, up-fades occasionally deliver — unlike
	// deterministic SINR. This is the edge-dynamics the model injects.
	m := NewRayleighSINR(8, 1, 1, 3, 0.1, 9)
	space := metric.NewMatrix(2, 2.3)
	v := newFakeView(space, 8, 3, []int{0})
	succ := 0
	for v.tick = 0; v.tick < 2000; v.tick++ {
		if m.Decodes(v, 0, 1) {
			succ++
		}
	}
	if succ == 0 {
		t.Fatal("no up-fade success beyond R in 2000 slots")
	}
	det := NewSINR(8, 1, 1, 3, 0.1)
	if det.Decodes(v, 0, 1) {
		t.Fatal("deterministic SINR must fail at d=2.3 > R")
	}
}

func TestRayleighFadeUnitMean(t *testing.T) {
	m := NewRayleighSINR(8, 1, 1, 3, 0.1, 11)
	sum := 0.0
	const k = 50000
	for i := 0; i < k; i++ {
		sum += m.fade(i, 0, 1)
	}
	if mean := sum / k; math.Abs(mean-1) > 0.03 {
		t.Fatalf("fading mean = %v, want 1", mean)
	}
}

func TestRayleighMetadata(t *testing.T) {
	m := NewRayleighSINR(8, 1, 1, 3, 0.1, 1)
	if m.Name() != "rayleigh" {
		t.Fatal("name")
	}
	if math.Abs(m.R()-2) > 1e-12 {
		t.Fatalf("R = %v", m.R())
	}
	if m.CommRadius(0.1) >= m.R() {
		t.Fatal("CommRadius must shrink")
	}
}
