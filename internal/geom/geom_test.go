package geom

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"udwn/internal/rng"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); math.Abs(got-tt.want*tt.want) > 1e-12 {
				t.Fatalf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}.Add(Point{3, 4})
	if p != (Point{4, 6}) {
		t.Fatalf("Add = %v", p)
	}
	s := Point{1, 2}.Scale(3)
	if s != (Point{3, 6}) {
		t.Fatalf("Scale = %v", s)
	}
}

func randomPoints(n int, side float64, seed uint64) []Point {
	r := rng.New(seed)
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = Point{r.Range(0, side), r.Range(0, side)}
	}
	return ps
}

// bruteWithin is the O(n) reference for Grid.Within.
func bruteWithin(ps []Point, present []bool, q Point, r float64) []int {
	var out []int
	for i, p := range ps {
		if present != nil && !present[i] {
			continue
		}
		if p.Dist(q) <= r {
			out = append(out, i)
		}
	}
	return out
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridWithinMatchesBrute(t *testing.T) {
	ps := randomPoints(500, 100, 1)
	g := NewGrid(ps, 5)
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		q := Point{r.Range(-10, 110), r.Range(-10, 110)}
		radius := r.Range(0.5, 20)
		got := sorted(g.Within(q, radius, nil))
		want := sorted(bruteWithin(ps, nil, q, radius))
		if !equalInts(got, want) {
			t.Fatalf("trial %d: Within mismatch: got %v want %v", trial, got, want)
		}
	}
}

func TestGridCountWithin(t *testing.T) {
	ps := randomPoints(300, 50, 3)
	g := NewGrid(ps, 3)
	r := rng.New(4)
	for trial := 0; trial < 30; trial++ {
		q := Point{r.Range(0, 50), r.Range(0, 50)}
		radius := r.Range(1, 15)
		if got, want := g.CountWithin(q, radius), len(bruteWithin(ps, nil, q, radius)); got != want {
			t.Fatalf("CountWithin = %d, want %d", got, want)
		}
	}
}

func TestGridRemoveInsert(t *testing.T) {
	ps := randomPoints(100, 20, 5)
	g := NewGrid(ps, 2)
	present := make([]bool, len(ps))
	for i := range present {
		present[i] = true
	}
	r := rng.New(6)
	for trial := 0; trial < 200; trial++ {
		i := r.Intn(len(ps))
		if present[i] {
			g.Remove(i)
			present[i] = false
		} else {
			p := Point{r.Range(0, 20), r.Range(0, 20)}
			ps[i] = p
			g.Insert(i, p)
			present[i] = true
		}
		q := Point{r.Range(0, 20), r.Range(0, 20)}
		got := sorted(g.Within(q, 4, nil))
		want := sorted(bruteWithin(ps, present, q, 4))
		if !equalInts(got, want) {
			t.Fatalf("trial %d: mismatch after remove/insert", trial)
		}
	}
}

func TestGridRemoveIdempotent(t *testing.T) {
	ps := randomPoints(10, 5, 7)
	g := NewGrid(ps, 1)
	g.Remove(3)
	g.Remove(3) // must not corrupt the index
	if g.Present(3) {
		t.Fatal("point still present after Remove")
	}
	if got := g.CountWithin(ps[3], 0.001); got != len(bruteWithin(ps, presentExcept(10, 3), ps[3], 0.001)) {
		t.Fatal("count disagrees after double remove")
	}
}

func presentExcept(n, except int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = i != except
	}
	return p
}

func TestGridMove(t *testing.T) {
	ps := randomPoints(200, 30, 8)
	g := NewGrid(ps, 2)
	r := rng.New(9)
	for trial := 0; trial < 300; trial++ {
		i := r.Intn(len(ps))
		p := Point{r.Range(0, 30), r.Range(0, 30)}
		ps[i] = p
		g.Move(i, p)
		if g.Point(i) != p {
			t.Fatal("Move did not update location")
		}
	}
	q := Point{15, 15}
	got := sorted(g.Within(q, 10, nil))
	want := sorted(bruteWithin(ps, nil, q, 10))
	if !equalInts(got, want) {
		t.Fatal("Within mismatch after moves")
	}
}

func TestGridEmpty(t *testing.T) {
	g := NewGrid(nil, 1)
	if got := g.Within(Point{0, 0}, 10, nil); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
	if g.Len() != 0 {
		t.Fatal("empty grid Len != 0")
	}
}

func TestGridSinglePoint(t *testing.T) {
	g := NewGrid([]Point{{5, 5}}, 1)
	if got := g.Within(Point{5, 5}, 0.1, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single point query = %v", got)
	}
	if got := g.Within(Point{100, 100}, 1, nil); len(got) != 0 {
		t.Fatalf("far query = %v", got)
	}
}

func TestGridBoxCells(t *testing.T) {
	// Corners (0,0) and (100,100) with cell 10: an 11×11 grid.
	g := NewGrid([]Point{{0, 0}, {100, 100}}, 10)
	for _, c := range []struct {
		q    Point
		r    float64
		want int
	}{
		{Point{55, 55}, 10, 9},     // columns and rows 4..6
		{Point{55, 55}, 4, 1},      // inside one cell
		{Point{0, 0}, 25, 9},       // clamped at the low corner: 0..2
		{Point{-50, 55}, 10, 3},    // off the grid: clamped to column 0
		{Point{50, 50}, 1000, 121}, // covers the whole grid
	} {
		box, total := g.BoxCells(c.q, c.r)
		if box != c.want || total != 121 {
			t.Errorf("BoxCells(%v, %v) = %d, %d; want %d, 121", c.q, c.r, box, total, c.want)
		}
	}
}

func TestGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(cell=0) did not panic")
		}
	}()
	NewGrid(nil, 0)
}

// Property: for random configurations, grid query equals brute force.
func TestGridProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(100)
		ps := randomPoints(n, 40, seed^0xabc)
		g := NewGrid(ps, r.Range(0.5, 8))
		q := Point{r.Range(0, 40), r.Range(0, 40)}
		radius := r.Range(0, 20)
		return equalInts(sorted(g.Within(q, radius, nil)), sorted(bruteWithin(ps, nil, q, radius)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGridIterWithinMatchesWithin(t *testing.T) {
	// Iter is the single source of truth Within and CountWithin wrap; pin
	// that all three agree, including enumeration order.
	ps := randomPoints(400, 60, 11)
	g := NewGrid(ps, 4)
	r := rng.New(12)
	for trial := 0; trial < 40; trial++ {
		q := Point{r.Range(-5, 65), r.Range(-5, 65)}
		radius := r.Range(0, 12)
		want := g.Within(q, radius, nil)
		var got []int
		it := g.IterWithin(q, radius)
		for {
			id, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, id)
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d: iterator order/content mismatch: got %v want %v", trial, got, want)
		}
		if n := g.CountWithin(q, radius); n != len(want) {
			t.Fatalf("trial %d: CountWithin = %d, want %d", trial, n, len(want))
		}
	}
}

func TestGridExactBoundaryInclusive(t *testing.T) {
	// Points exactly at distance r are inside: 3-4-5 triangles have exact
	// float distances, so any off-by-one-ulp comparison would show here.
	ps := []Point{{0, 0}, {3, 4}, {-3, 4}, {5, 0}, {0, -5}, {3.0000001, 4}}
	g := NewGrid(ps, 2)
	got := sorted(g.Within(Point{0, 0}, 5, nil))
	want := []int{0, 1, 2, 3, 4} // index 5 is just outside
	if !equalInts(got, want) {
		t.Fatalf("exact-radius query = %v, want %v", got, want)
	}
	if n := g.CountWithin(Point{0, 0}, 5); n != 5 {
		t.Fatalf("CountWithin = %d, want 5", n)
	}
}

func TestGridNegativeQueryCoordinates(t *testing.T) {
	// A query rectangle extending far below the bounding box yields negative
	// pre-clamp cell coordinates; truncation-vs-floor artifacts must not
	// drop border cells. Points themselves sit at negative coordinates too.
	ps := []Point{{-10, -10}, {-9.5, -10}, {0, 0}, {4, 4}}
	g := NewGrid(ps, 3)
	got := sorted(g.Within(Point{-40, -40}, 43, nil))
	if !equalInts(got, []int{0, 1}) {
		t.Fatalf("negative-coordinate query = %v, want [0 1]", got)
	}
	if n := g.CountWithin(Point{-40, -40}, 43); n != 2 {
		t.Fatalf("CountWithin = %d, want 2", n)
	}
	// Exactly at the corner distance, inclusively.
	if got := sorted(g.Within(Point{-40, -40}, math.Hypot(30, 30), nil)); !equalInts(got, []int{0}) {
		t.Fatalf("corner-distance query = %v, want [0]", got)
	}
}

func TestGridMoveOutsideBoundingBox(t *testing.T) {
	// Points Moved outside the construction-time bounding box land in
	// clamped border cells; queries clamp the same way, so they must still
	// be found — both near their new location and not at the old one.
	ps := randomPoints(50, 10, 13)
	g := NewGrid(ps, 1)
	far := []Point{{100, 100}, {-50, 5}, {5, -70}, {200, -200}}
	for i, p := range far {
		ps[i] = p
		g.Move(i, p)
	}
	for i, p := range far {
		got := sorted(g.Within(p, 0.5, nil))
		want := sorted(bruteWithin(ps, nil, p, 0.5))
		if !equalInts(got, want) {
			t.Fatalf("moved point %d: Within(%v) = %v, want %v", i, p, got, want)
		}
	}
	// A sweep over the whole (old and new) area still matches brute force.
	got := sorted(g.Within(Point{5, 5}, 400, nil))
	want := sorted(bruteWithin(ps, nil, Point{5, 5}, 400))
	if !equalInts(got, want) {
		t.Fatal("global query misses relocated points")
	}
	// Remove/Insert of an out-of-box point must keep the index consistent.
	g.Remove(0)
	if got := g.Within(far[0], 0.5, nil); len(got) != 0 {
		t.Fatalf("removed out-of-box point still found: %v", got)
	}
	g.Insert(0, far[0])
	if got := g.Within(far[0], 0.5, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("re-inserted out-of-box point not found: %v", got)
	}
}

func BenchmarkGridWithin(b *testing.B) {
	ps := randomPoints(4096, 100, 1)
	g := NewGrid(ps, 5)
	buf := make([]int, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(ps[i%len(ps)], 5, buf[:0])
	}
}
