package model

import (
	"encoding/binary"
	"math"
	"testing"

	"udwn/internal/metric"
	"udwn/internal/rng"
)

// TestOneDecodePerListener pins Model's one-frame contract on every shipped
// constructor: over random placements and ascending transmitter sets, with
// fakeView's canonical ascending TotalPower, at most one transmitter decodes
// at each listener. Each model must meet listeners offered two or more
// transmitters inside its decode cutoff, so the check is not vacuous.
func TestOneDecodePerListener(t *testing.T) {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	models := []Model{
		NewSINR(1500, 1, 1, 3, 0.1),
		NewSINR(1500, 1.5, 1, 3, 0.1),
		NewRayleighSINR(1500, 1, 1, 3, 0.1, 7),
		NewUDG(10), NewUBG(10), NewKHop(10, 1.5),
		NewQUDG(6, 10, nil), NewQUDG(6, 10, grey),
		NewProtocol(9, 13),
		NewBIG(2),
	}
	for i, m := range models {
		r := rng.New(uint64(i) + 1)
		offered := 0
		for trial := 0; trial < 200; trial++ {
			const n = 40
			var space metric.Space
			if m.Name() == "big" {
				space = randomGraph(r, n, 0.08)
			} else {
				space = randomPlane(r, n, 40)
			}
			tx := randomTransmitters(r, n, 0.2)
			isTx := make([]bool, n)
			for _, v := range tx {
				isTx[v] = true
			}
			view := newFakeView(space, 1500, 3, tx)
			view.tick = 3
			for v := 0; v < n; v++ {
				if isTx[v] {
					continue
				}
				inside, decoded := 0, 0
				for _, u := range tx {
					if space.Dist(u, v) <= m.MaxDecodeRange() {
						inside++
					}
					if m.Decodes(view, u, v) {
						decoded++
					}
				}
				if decoded > 1 {
					t.Fatalf("%s (model %d) trial %d: listener %d decodes %d transmitters", m.Name(), i, trial, v, decoded)
				}
				if inside >= 2 {
					offered++
				}
			}
		}
		if offered == 0 {
			t.Fatalf("%s (model %d): no listener had two transmitters inside the decode cutoff", m.Name(), i)
		}
	}
}

// TestSINRDecodeFloor pins DecodeFloor's contract: every pair Decodes
// accepts has power above the floor of its listener's TotalPower (fakeView's
// canonical ascending sum), and the floor is non-decreasing. Random
// placements give every transmitter a power scale from 1e-6 to 1e3.
// Adversarial cases sweep the candidate's power ulp by ulp across the decode
// boundary, where only the floor's margin separates it from the signal: a
// lone transmitter, whose TotalPower equals the signal bit for bit; a
// signal of about TotalPower/2; β = 1; and noise at 1e-12 of TotalPower,
// each at signal powers from 1e-6 to 1e3.
func TestSINRDecodeFloor(t *testing.T) {
	r := rng.New(9)
	for _, beta := range []float64{1, 1.5, 3} {
		m := NewSINR(1500, beta, 1, 3, 0.1)
		decoded := 0
		for trial := 0; trial < 100; trial++ {
			const n = 40
			space := randomPlane(r, n, 40)
			tx := randomTransmitters(r, n, 0.2)
			view := newFakeView(space, 1500, 3, tx)
			view.scale = make([]float64, n)
			for _, w := range tx {
				view.scale[w] = math.Pow(10, r.Range(-6, 3))
			}
			for v := 0; v < n; v++ {
				total := view.TotalPower(v)
				floor := m.DecodeFloor(total)
				if up := m.DecodeFloor(math.Nextafter(total, math.Inf(1))); up < floor {
					t.Fatalf("β=%v: DecodeFloor(%v) = %v above DecodeFloor of the next float, %v", beta, total, floor, up)
				}
				for _, u := range tx {
					if u == v || !m.Decodes(view, u, v) {
						continue
					}
					decoded++
					if sig := view.Power(u, v); !(sig > floor) {
						t.Fatalf("β=%v trial %d: %d decodes %d at power %v, not above DecodeFloor(%v) = %v",
							beta, trial, v, u, sig, total, floor)
					}
				}
			}
		}
		if decoded == 0 {
			t.Fatalf("β=%v: vacuous, no random pair decoded", beta)
		}
	}

	// Every adversarial case puts its transmitters at unit distance from
	// listener 0 under P = 1, so a transmitter's scale is its power.
	cases := []struct {
		name   string
		beta   float64
		noise  float64
		others []float64 // interferers' powers; the candidate goes at index at
		at     int
	}{
		{"lone", 1.5, 1, nil, 0},
		{"lone β=1", 1, 1, nil, 0},
		{"lone β=1000", 1000, 1, nil, 0},
		{"half β=1", 1, 1e-3, []float64{1}, 0},
		{"half β=1 candidate last", 1, 1e-3, []float64{0.7, 0.3}, 2},
		{"three interferers", 1.5, 1, []float64{0.3, 1e-4, 2.5}, 1},
		{"noise 1e-12", 1.5, 1e-12, []float64{0.25, 0.5, 0.125}, 3},
		{"noise 1e-12 β=1", 1, 1e-12, []float64{1.0 / 3, 1.0 / 7}, 1},
	}
	for _, tc := range cases {
		for _, mag := range []float64{1e-6, 1e-3, 1, 1e3} {
			k := len(tc.others) + 1
			m := NewSINR(1, tc.beta, tc.noise*mag, 3, 0.1)
			view := newFakeView(metric.NewMatrix(k+1, 1), 1, 3, nil)
			view.scale = make([]float64, k+1)
			for w, i := 0, 0; w < k; w++ {
				view.tx = append(view.tx, w+1)
				if w != tc.at {
					view.scale[w+1] = tc.others[i] * mag
					i++
				}
			}
			in, out := floorSweep(t, m, view, tc.at+1, 0)
			if in == 0 || out == 0 {
				t.Fatalf("%s at %v: the sweep never crossed the boundary (%d decoded, %d not)", tc.name, mag, in, out)
			}
		}
	}
}

// floorSweep steps transmitter u's power at listener v ulp by ulp across the
// decode boundary β·(interference + N) and checks DecodeFloor's contract at
// every step: a decode clears the floor, and the floor never falls while
// TotalPower rises. It returns how many steps decoded and how many did not.
func floorSweep(t *testing.T, m *SINR, view *fakeView, u, v int) (in, out int) {
	t.Helper()
	others := 0.0
	for _, w := range view.tx {
		if w != u {
			others += view.Power(w, v)
		}
	}
	edge := m.Beta() * (others + m.Noise()) / view.field.Power(u, v)
	prev := math.Inf(-1)
	for k := -64; k <= 64; k++ {
		view.scale[u] = edge * (1 + float64(k)*0x1p-52)
		total := view.TotalPower(v)
		floor := m.DecodeFloor(total)
		if floor < prev {
			t.Fatalf("DecodeFloor fell from %v to %v as TotalPower rose to %v", prev, floor, total)
		}
		prev = floor
		if !m.Decodes(view, u, v) {
			out++
			continue
		}
		in++
		if sig := view.Power(u, v); !(sig > floor) {
			t.Fatalf("β=%v N=%v: power %v decodes against TotalPower %v, not above DecodeFloor %v",
				m.Beta(), m.Noise(), sig, total, floor)
		}
	}
	return in, out
}

// FuzzDecodeFloor checks DecodeFloor's contract on arbitrary inputs: the
// candidate's power p, β ≥ 1, noise N > 0, and a list of interferers'
// powers (raw, read as little-endian float64s, made non-negative, finite
// ones only, at most 16), with the candidate at index at of the ascending
// sum. Each transmitter sits at unit distance under P = 1, so its scale is
// its power. A decode must clear the floor of TotalPower, and the floor must
// not fall from any partial sum to the next, nor from TotalPower to the next
// float. The committed corpus under testdata/fuzz holds the boundary cases:
// a lone transmitter one ulp above βN, β = 1 with the signal at half the
// sum, noise at 1e-12 of the sum, subnormal noise, and a sum whose total
// plus N overflows.
func FuzzDecodeFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, p, beta, noise float64, raw []byte, at uint8) {
		if !(p > 0 && p <= math.MaxFloat64) || !(beta >= 1 && beta <= math.MaxFloat64) ||
			!(noise > 0 && noise <= math.MaxFloat64) {
			return
		}
		var powers []float64
		for len(raw) >= 8 && len(powers) < 16 {
			x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
			if x <= math.MaxFloat64 {
				powers = append(powers, x)
			}
		}
		k := len(powers) + 1
		u := 1 + int(at)%k
		view := newFakeView(metric.NewMatrix(k+1, 1), 1, 3, nil)
		view.scale = make([]float64, k+1)
		for w, i := 1, 0; w <= k; w++ {
			view.tx = append(view.tx, w)
			if w == u {
				view.scale[w] = p
			} else {
				view.scale[w] = powers[i]
				i++
			}
		}
		m := NewSINR(1, beta, noise, 3, 0.1)
		partial, prev := 0.0, m.DecodeFloor(0)
		for _, w := range view.tx {
			partial += view.Power(w, 0)
			floor := m.DecodeFloor(partial)
			if floor < prev {
				t.Fatalf("DecodeFloor fell from %v to %v as the sum rose to %v", prev, floor, partial)
			}
			prev = floor
		}
		total := view.TotalPower(0)
		floor := m.DecodeFloor(total)
		if up := m.DecodeFloor(math.Nextafter(total, math.Inf(1))); up < floor {
			t.Fatalf("DecodeFloor(%v) = %v above DecodeFloor of the next float, %v", total, floor, up)
		}
		if m.Decodes(view, u, 0) && !(view.Power(u, 0) > floor) {
			t.Fatalf("power %v decodes against TotalPower %v, not above DecodeFloor %v", view.Power(u, 0), total, floor)
		}
	})
}
