package geom

import (
	"math"
	"sort"
	"testing"
)

// bruteForceWithin is the O(n) oracle the grid index must agree with: the
// ids of all present points within distance r of q, in id order.
func bruteForceWithin(pts []Point, present []bool, q Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if present[i] && p.Dist2(q) <= r*r {
			out = append(out, i)
		}
	}
	return out
}

// checkAgainstBrute compares Within and CountWithin to the brute scan for
// every indexed point as the query plus one off-grid probe, and requires
// IterWithin's Dist2 to equal each yielded point's squared distance bit for
// bit.
func checkAgainstBrute(t *testing.T, g *Grid, pts []Point, present []bool, r float64) {
	t.Helper()
	queries := append([]Point(nil), pts...)
	queries = append(queries, Point{-1, -1})
	for _, q := range queries {
		got := g.Within(q, r, nil)
		sort.Ints(got)
		want := bruteForceWithin(pts, present, q, r)
		if len(got) != len(want) {
			t.Fatalf("Within(%v, %g): %d ids, brute scan %d (%v vs %v)",
				q, r, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Within(%v, %g) = %v, brute scan %v", q, r, got, want)
			}
		}
		if n := g.CountWithin(q, r); n != len(want) {
			t.Fatalf("CountWithin(%v, %g) = %d, want %d", q, r, n, len(want))
		}
		it := g.IterWithin(q, r)
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			if got, want := it.Dist2(), pts[id].Dist2(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("IterWithin(%v, %g): Dist2() = %v for id %d, want %v", q, r, got, id, want)
			}
		}
	}
}

// FuzzGridWithin decodes a point set, cell size, radius and a mutation
// script (removals, re-insertions, moves) from the fuzzed bytes and checks
// that the grid index agrees with the brute-force scan before and after the
// mutations. Coordinates are built from bytes, so they are always finite.
func FuzzGridWithin(f *testing.F) {
	f.Add([]byte{128, 64, 0, 10, 10, 20, 20, 30, 30, 200, 200})
	f.Add([]byte{1, 255, 3, 0, 0, 0, 0, 255, 255, 128, 128, 7, 9})
	f.Add([]byte{255, 1, 250, 5, 5})
	f.Add([]byte{64, 128, 77, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		const span = 32.0
		cell := 0.25 + float64(data[0])*8/255  // (0.25, 8.25]
		r := float64(data[1]) * span / 2 / 255 // [0, 16]
		script := data[2]
		var pts []Point
		for i := 3; i+1 < len(data) && len(pts) < 96; i += 2 {
			pts = append(pts, Point{
				X: float64(data[i]) * span / 255,
				Y: float64(data[i+1]) * span / 255,
			})
		}
		if len(pts) == 0 {
			return
		}
		present := make([]bool, len(pts))
		for i := range present {
			present[i] = true
		}

		g := NewGrid(pts, cell)
		checkAgainstBrute(t, g, pts, present, r)

		// Deterministic mutation script driven by the fuzzed bytes: walk the
		// points, removing, moving or re-inserting by turns.
		x := uint32(script) + 1
		next := func(n int) int { // xorshift — cheap, no math/rand in fuzz body
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			return int(x) % n
		}
		for step := 0; step < len(pts); step++ {
			i := next(len(pts))
			switch step % 3 {
			case 0:
				g.Remove(i)
				present[i] = false
			case 1:
				p := Point{pts[next(len(pts))].Y, pts[next(len(pts))].X}
				g.Insert(i, p)
				pts[i] = p
				present[i] = true
			case 2:
				p := pts[i].Add(Point{float64(next(7)) - 3, float64(next(7)) - 3})
				g.Move(i, p)
				pts[i] = p
			}
		}
		checkAgainstBrute(t, g, pts, present, r)
	})
}
