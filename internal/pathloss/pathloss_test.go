package pathloss

import (
	"math"
	"testing"
	"testing/quick"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/rng"
)

func twoNodeSpace(d float64) metric.Space {
	m := metric.NewMatrix(2, d)
	return m
}

func TestPowerInverseLaw(t *testing.T) {
	f := NewField(twoNodeSpace(2), 1, 3, Options{})
	want := 1.0 / 8
	if got := f.Power(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Power = %v, want %v", got, want)
	}
}

func TestPowerSelfZero(t *testing.T) {
	f := NewField(twoNodeSpace(2), 1, 3, Options{})
	if f.Power(0, 0) != 0 {
		t.Fatal("self power must be 0")
	}
}

func TestPowerNearFieldClamp(t *testing.T) {
	// A pair closer than dMin receives the power at dMin.
	f := NewField(twoNodeSpace(1e-9), 1, 2, Options{})
	want := 1 / (dMin * dMin)
	if got := f.Power(0, 1); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("clamped Power = %v, want %v", got, want)
	}
}

func TestPowerUnreachable(t *testing.T) {
	g := metric.NewGraph([][]int{{}, {}})
	f := NewField(g, 1, 2, Options{})
	if f.Power(0, 1) != 0 {
		t.Fatal("unreachable pair must have zero power")
	}
}

func TestCacheMatchesCompute(t *testing.T) {
	r := rng.New(1)
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 10), Y: r.Range(0, 10)}
	}
	e := metric.NewEuclidean(pts)
	cached := NewField(e, 2, 3, Options{})
	uncached := NewField(e, 2, 3, Options{Dynamic: true}) // no cache
	for u := 0; u < 50; u++ {
		for v := 0; v < 50; v++ {
			if math.Abs(cached.Power(u, v)-uncached.Power(u, v)) > 1e-12 {
				t.Fatalf("cache mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestDynamicFieldTracksSpace(t *testing.T) {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	f := NewField(e, 1, 2, Options{Dynamic: true})
	before := f.Power(0, 1)
	e.SetPoint(1, geom.Point{X: 2, Y: 0})
	after := f.Power(0, 1)
	if math.Abs(before-1) > 1e-12 || math.Abs(after-0.25) > 1e-12 {
		t.Fatalf("dynamic field stale: before=%v after=%v", before, after)
	}
}

func TestPowerAtDistAndInverse(t *testing.T) {
	f := NewField(twoNodeSpace(1), 4, 2.5, Options{})
	for _, d := range []float64{0.5, 1, 3, 10} {
		pw := f.PowerAtDist(d)
		back := f.DistForPower(pw)
		if math.Abs(back-math.Max(d, 1e-3)) > 1e-9 {
			t.Fatalf("DistForPower(PowerAtDist(%v)) = %v", d, back)
		}
	}
}

func TestSINRRange(t *testing.T) {
	// R = (P/(βN))^{1/ζ}: with P=8, β=1, N=1, ζ=3 → R=2.
	if r := SINRRange(8, 1, 1, 3); math.Abs(r-2) > 1e-12 {
		t.Fatalf("SINRRange = %v, want 2", r)
	}
	// Power received at R must equal βN.
	f := NewField(twoNodeSpace(2), 8, 3, Options{})
	if got := f.PowerAtDist(2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("power at R = %v, want βN = 1", got)
	}
}

func TestNonIntegerZeta(t *testing.T) {
	f := NewField(twoNodeSpace(2), 1, 2.7, Options{})
	want := 1 / math.Pow(2, 2.7)
	if got := f.Power(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Power = %v, want %v", got, want)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for name, fn := range map[string]func(){
		"p=0":    func() { NewField(twoNodeSpace(1), 0, 2, Options{}) },
		"zeta=0": func() { NewField(twoNodeSpace(1), 1, 0, Options{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestShadowedDeterministicSymmetric(t *testing.T) {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 5}})
	s := NewShadowed(e, 0.3, 42)
	if s.Dist(0, 1) != s.Dist(0, 1) {
		t.Fatal("shadowing must be deterministic")
	}
	if s.Dist(0, 1) != s.Dist(1, 0) {
		t.Fatal("shadowing must be symmetric per pair")
	}
	if s.Dist(1, 1) != 0 {
		t.Fatal("self distance must be 0")
	}
	s2 := NewShadowed(e, 0.3, 43)
	same := s.Dist(0, 1) == s2.Dist(0, 1) && s.Dist(0, 2) == s2.Dist(0, 2)
	if same {
		t.Fatal("different seeds should perturb differently")
	}
}

func TestShadowedBounded(t *testing.T) {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	sigma := 0.4
	s := NewShadowed(e, sigma, 7)
	d := s.Dist(0, 1)
	lo, hi := math.Exp(-2*sigma), math.Exp(2*sigma)
	if d < lo || d > hi {
		t.Fatalf("shadowed distance %v outside clamp [%v,%v]", d, lo, hi)
	}
}

func TestShadowedUnreachablePreserved(t *testing.T) {
	g := metric.NewGraph([][]int{{}, {}})
	s := NewShadowed(g, 0.5, 1)
	if s.Dist(0, 1) < metric.Unreachable {
		t.Fatal("shadowing must not bring unreachable pairs into range")
	}
}

// Property: Power is monotone decreasing in distance.
func TestPowerMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d1 := r.Range(0.01, 50)
		d2 := d1 + r.Range(0.01, 50)
		zeta := r.Range(1.5, 5)
		fl := NewField(twoNodeSpace(1), 1, zeta, Options{})
		return fl.PowerAtDist(d1) >= fl.PowerAtDist(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPowerCached(b *testing.B) {
	r := rng.New(1)
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)}
	}
	f := NewField(metric.NewEuclidean(pts), 1, 3, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Power(i%1024, (i+7)%1024)
	}
}

func BenchmarkPowerUncached(b *testing.B) {
	r := rng.New(1)
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)}
	}
	f := NewField(metric.NewEuclidean(pts), 1, 3, Options{Dynamic: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Power(i%1024, (i+7)%1024)
	}
}

func TestFieldAccessors(t *testing.T) {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	f := NewField(e, 2, 3, Options{})
	if f.P() != 2 || f.Zeta() != 3 || f.Len() != 2 {
		t.Fatal("accessors wrong")
	}
	if f.Space() != e {
		t.Fatal("Space accessor wrong")
	}
}

func TestPowerAtDistClamp(t *testing.T) {
	f := NewField(twoNodeSpace(1), 1, 2, Options{})
	if got, want := f.PowerAtDist(1e-4), 1/(dMin*dMin); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("clamped PowerAtDist = %v, want %v", got, want)
	}
}

func TestShadowedLen(t *testing.T) {
	e := metric.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	if NewShadowed(e, 0.1, 1).Len() != 2 {
		t.Fatal("Shadowed.Len wrong")
	}
}
