package model

import (
	"math"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/pathloss"
)

// TestMaxDecodeRangeValues pins the declared decode cutoffs of every shipped
// model.
func TestMaxDecodeRangeValues(t *testing.T) {
	sinr := NewSINR(1500, 1.5, 1, 3, 0.1)
	if got, want := sinr.MaxDecodeRange(), pathloss.SINRRange(1500, 1.5, 1, 3); got != want {
		t.Fatalf("SINR MaxDecodeRange = %v, want R = %v", got, want)
	}
	if got := NewUDG(7).MaxDecodeRange(); got != 7 {
		t.Fatalf("UDG MaxDecodeRange = %v, want 7", got)
	}
	if got := NewQUDG(4, 9, nil).MaxDecodeRange(); got != 4 {
		t.Fatalf("pessimistic QUDG MaxDecodeRange = %v, want innerR 4", got)
	}
	grey := func(d float64) bool { return true }
	if got := NewQUDG(4, 9, grey).MaxDecodeRange(); got != 9 {
		t.Fatalf("grey QUDG MaxDecodeRange = %v, want outerR 9", got)
	}
	if got := NewProtocol(5, 11).MaxDecodeRange(); got != 5 {
		t.Fatalf("Protocol MaxDecodeRange = %v, want commR 5", got)
	}
	if got := NewBIG(2).MaxDecodeRange(); got != 1 {
		t.Fatalf("BIG MaxDecodeRange = %v, want 1", got)
	}
	tick := func() int { return 0 }
	ray := NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 7, tick)
	wantRay := ray.R() * math.Pow(-math.Log(1-fadeClamp), 1.0/3)
	if got := ray.MaxDecodeRange(); math.Abs(got-wantRay) > 1e-12 {
		t.Fatalf("Rayleigh MaxDecodeRange = %v, want %v", got, wantRay)
	}
	if ray.MaxDecodeRange() <= ray.R() {
		t.Fatal("Rayleigh MaxDecodeRange must exceed the mean-field range")
	}
}

// TestDecodesFalseBeyondMaxDecodeRange verifies the MaxDecodeRange contract
// under its hardest condition — a lone transmitter, zero interference: past
// the declared cutoff Decodes must be false, which is what licenses the
// simulator to skip those pairs entirely on the indexed reception path.
func TestDecodesFalseBeyondMaxDecodeRange(t *testing.T) {
	var tickVal int
	tick := func() int { return tickVal }
	grey := func(d float64) bool { return math.Sin(d*31.4) > -0.5 }
	models := []Model{
		NewSINR(1500, 1.5, 1, 3, 0.1),
		NewUDG(7),
		NewQUDG(4, 9, nil),
		NewQUDG(4, 9, grey),
		NewProtocol(5, 11),
		NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 7, tick),
	}
	for _, m := range models {
		cutoff := m.MaxDecodeRange()
		for _, factor := range []float64{1 + 1e-9, 1.01, 1.5, 4} {
			d := cutoff * factor
			e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: d, Y: 0}})
			view := newFakeView(e, 1500, 3, []int{0})
			// Rayleigh redraws fading per tick; sweep many slots so a lucky
			// coefficient would be caught.
			for tickVal = 0; tickVal < 500; tickVal++ {
				if m.Decodes(view, 0, 1) {
					t.Fatalf("%s decodes at %.6g×MaxDecodeRange (tick %d)",
						m.Name(), factor, tickVal)
				}
			}
		}
		// Sanity: the cutoff is not vacuously large — a clear channel decodes
		// somewhere inside it (graph models decode right up to the cutoff;
		// Rayleigh needs a favourable draw, so scan slots).
		d := cutoff * 0.9
		switch m.Name() {
		case "qudg":
			d = 3.9 // inside innerR, where connectivity is unconditional
		case "rayleigh":
			// Deep inside the cutoff a decode needs a ~e^{-10} fading draw;
			// just beyond the mean-field range a ~20% draw suffices while
			// still proving the faded range exceeds R.
			d = m.R() * 1.2
		}
		e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: d, Y: 0}})
		view := newFakeView(e, 1500, 3, []int{0})
		decoded := false
		for tickVal = 0; tickVal < 500 && !decoded; tickVal++ {
			decoded = m.Decodes(view, 0, 1)
		}
		if !decoded {
			t.Fatalf("%s never decodes inside its cutoff", m.Name())
		}
	}
}

// TestFieldObliviousDeclarations pins which models may skip the interference
// field: graph-style rules and Rayleigh (which sums its own faded per-pair
// powers) never read View.TotalPower; SINR does.
func TestFieldObliviousDeclarations(t *testing.T) {
	tick := func() int { return 0 }
	oblivious := []Model{
		NewUDG(7), NewUBG(7), NewKHop(7, 2), NewQUDG(4, 9, nil),
		NewProtocol(5, 11), NewBIG(2),
		NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 7, tick),
	}
	for _, m := range oblivious {
		fo, ok := m.(FieldOblivious)
		if !ok || !fo.FieldOblivious() {
			t.Fatalf("%s should declare FieldOblivious", m.Name())
		}
	}
	if _, ok := Model(NewSINR(1500, 1.5, 1, 3, 0.1)).(FieldOblivious); ok {
		t.Fatal("SINR reads TotalPower and must not declare FieldOblivious")
	}
}
