package model

import (
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
