package model

import (
	"math"
	"testing"

	"udwn/internal/metric"
)

// TestModelMetadata pins down the identity surface of every model: names,
// ranges, SuccClear parameters and comm radii.
func TestModelMetadata(t *testing.T) {
	tests := []struct {
		m        Model
		name     string
		r        float64
		rhoC     float64
		icInf    bool
		commR010 float64 // CommRadius(0.1)
	}{
		{NewSINR(8, 1, 1, 3, 0.1), "sinr", 2, 0, false, 1.8},
		{NewUDG(4), "udg", 4, 2, true, 4},
		{NewUBG(4), "ubg", 4, 2, true, 4},
		{NewKHop(4, 2), "khop", 4, 3, true, 4},
		{NewQUDG(3, 6, nil), "qudg", 3, 3, true, 3},
		{NewProtocol(4, 8), "protocol", 4, 3, true, 4},
		{NewBIG(2), "big", 1, 3, true, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.m.Name(); got != tt.name {
				t.Fatalf("Name = %q", got)
			}
			if got := tt.m.R(); math.Abs(got-tt.r) > 1e-9 {
				t.Fatalf("R = %v, want %v", got, tt.r)
			}
			p := tt.m.Params()
			if math.Abs(p.RhoC-tt.rhoC) > 1e-9 {
				t.Fatalf("RhoC = %v, want %v", p.RhoC, tt.rhoC)
			}
			if math.IsInf(p.Ic, 1) != tt.icInf {
				t.Fatalf("Ic = %v, infinite-ness wrong", p.Ic)
			}
			if got := tt.m.CommRadius(0.1); math.Abs(got-tt.commR010) > 1e-9 {
				t.Fatalf("CommRadius(0.1) = %v, want %v", got, tt.commR010)
			}
		})
	}
}

func TestRayleighParams(t *testing.T) {
	m := NewRayleighSINR(8, 1, 1, 3, 0.1, 1)
	det := NewSINR(8, 1, 1, 3, 0.1)
	if m.Params() != det.Params() {
		t.Fatal("Rayleigh must inherit SINR SuccClear parameters")
	}
}

func TestSINRDecodesSelfSignalZero(t *testing.T) {
	// Power(u,u) = 0, so a node can never decode itself.
	s := NewSINR(8, 1, 1, 3, 0.1)
	v := newFakeView(twoNodeMatrix(1), 8, 3, []int{0})
	if s.Decodes(v, 0, 0) {
		t.Fatal("self-decode must fail")
	}
}

func TestQUDGDecodesOwnInterferenceExcluded(t *testing.T) {
	// The sender's own transmission must not count against itself.
	m := NewQUDG(2, 4, nil)
	v := newFakeView(twoNodeMatrix(1.5), 1, 3, []int{0})
	if !m.Decodes(v, 0, 1) {
		t.Fatal("lone inner-zone transmitter must decode")
	}
}

// twoNodeMatrix is a tiny helper mirroring the one in model_test.go.
func twoNodeMatrix(d float64) *metric.Matrix { return metric.NewMatrix(2, d) }
