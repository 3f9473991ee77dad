package sim

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
)

func TestAccessors(t *testing.T) {
	cfg := lineConfig()
	s := newSim(t, cfg, map[int]map[int]bool{0: {0: true, 2: true}})
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Model() != cfg.Model {
		t.Fatal("Model accessor wrong")
	}
	if s.CommRadius() != cfg.Model.CommRadius(cfg.Eps) {
		t.Fatal("CommRadius accessor wrong")
	}
	if s.Thresholds().BusyRSS <= 0 {
		t.Fatal("Thresholds accessor wrong")
	}
	s.Run(4)
	if s.MassDeliveries(0) != 2 {
		t.Fatalf("MassDeliveries(0) = %d, want 2", s.MassDeliveries(0))
	}
}

func TestAdversaries(t *testing.T) {
	if (PessimisticAdversary{}).AckAmbiguous(1, 2) {
		t.Fatal("pessimist must answer false")
	}
	if !(OptimisticAdversary{}).AckAmbiguous(1, 2) {
		t.Fatal("optimist must answer true")
	}
	ra := &RandomAdversary{Seed: 1, P: 0.5}
	if ra.AckAmbiguous(1, 2) != ra.AckAmbiguous(1, 2) {
		t.Fatal("random adversary must be deterministic per (node, tick)")
	}
	trues := 0
	for i := 0; i < 1000; i++ {
		if ra.AckAmbiguous(i, i*3) {
			trues++
		}
	}
	if trues < 400 || trues > 600 {
		t.Fatalf("random adversary frequency = %d/1000 at P=0.5", trues)
	}
	never := &RandomAdversary{Seed: 1, P: 0}
	if never.AckAmbiguous(7, 7) {
		t.Fatal("P=0 adversary must answer false")
	}
}

func TestGenericNeighbourCacheBuild(t *testing.T) {
	// A non-Euclidean static space exercises the O(n²) neighbour-cache
	// fallback.
	m := metric.NewMatrix(4, 100)
	m.SetSym(0, 1, 1)
	m.SetSym(1, 2, 1)
	s, err := New(Config{
		Space: m,
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed: 1,
	}, func(int) Protocol { return &scriptProto{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NeighborCount(1); got != 2 {
		t.Fatalf("NeighborCount(1) = %d, want 2", got)
	}
	if got := s.NeighborCount(3); got != 0 {
		t.Fatalf("NeighborCount(3) = %d, want 0", got)
	}
}

func TestSlotViewRadiusCache(t *testing.T) {
	// TransmittersWithin on a hand-built view matches a brute count at
	// three radii, with and without an excluded node.
	e := metric.NewEuclidean(makePoints(8))
	s, err := New(Config{
		Space: e,
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed: 1,
	}, func(int) Protocol { return &scriptProto{} })
	if err != nil {
		t.Fatal(err)
	}
	tx := []int{0, 2, 5}
	vw := &slotView{s: s, tx: tx}
	brute := func(v int, r float64, excl int) int {
		c := 0
		for _, w := range tx {
			if w == v || w == excl {
				continue
			}
			if e.Dist(w, v) <= r {
				c++
			}
		}
		return c
	}
	for _, r := range []float64{1.5, 3, 6} {
		for v := 0; v < 8; v++ {
			for _, excl := range []int{-1, 0, 2, v} {
				if got, want := vw.TransmittersWithin(v, r, excl), brute(v, r, excl); got != want {
					t.Fatalf("TransmittersWithin(%d, %v, %d) = %d, want %d", v, r, excl, got, want)
				}
			}
		}
	}
}

func makePoints(k int) []geom.Point {
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	return pts
}
