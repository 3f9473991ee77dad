package model

import (
	"math"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/rng"
)

// TestCollisionRuleOracle pins every graph-style constructor to the unified
// collision rule of App. B, written out here from the radii the constructor
// was given: v decodes u iff u→v is an edge (d ≤ comm, or a grey edge with
// d ≤ interf) and no other transmitter lies within interf of v. Spaces are
// random planes, random graphs for BIG, and random matrices whose distances
// often sit exactly on a radius, so every comparison is checked at its
// boundary too.
func TestCollisionRuleOracle(t *testing.T) {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	always := func(float64) bool { return true }
	cases := []struct {
		m            Model
		comm, interf float64
		grey         func(float64) bool
	}{
		{NewUDG(10), 10, 10, nil},
		{NewUBG(10), 10, 10, nil},
		{NewKHop(10, 1), 10, 10, nil},
		{NewKHop(10, 1.5), 10, 15, nil},
		{NewQUDG(6, 10, nil), 6, 10, nil},
		{NewQUDG(6, 10, grey), 6, 10, grey},
		{NewQUDG(6, 10, always), 6, 10, always},
		{NewQUDG(8, 8, grey), 8, 8, grey},
		{NewProtocol(9, 13), 9, 13, nil},
		{NewProtocol(9, 9), 9, 9, nil},
		{NewBIG(1), 1, 1, nil},
		{NewBIG(3), 1, 3, nil},
	}
	for i, c := range cases {
		r := rng.New(uint64(i) + 101)
		const n = 30
		decoded, blocked := 0, 0
		for trial := 0; trial < 300; trial++ {
			var space metric.Space
			switch {
			case c.m.Name() == "big":
				space = randomGraph(r, n, 0.08)
			case trial%2 == 0:
				space = randomPlane(r, n, 4*c.interf)
			default:
				space = radiiMatrix(r, n, c.comm, c.interf)
			}
			tx := randomTransmitters(r, n, 0.2)
			view := newFakeView(space, 1500, 3, tx)
			for v := 0; v < n; v++ {
				for _, u := range tx {
					if u == v {
						continue
					}
					d := space.Dist(u, v)
					want := d <= c.comm || d <= c.interf && c.grey != nil && c.grey(d)
					edge := want
					for _, w := range tx {
						if w != u && w != v && space.Dist(w, v) <= c.interf {
							want = false
						}
					}
					if got := c.m.Decodes(view, u, v); got != want {
						t.Fatalf("%s (case %d) trial %d: Decodes(%d→%d) = %v at d = %v, rule says %v",
							c.m.Name(), i, trial, u, v, got, d, want)
					}
					if want {
						decoded++
					} else if edge {
						blocked++
					}
				}
			}
		}
		if decoded == 0 || blocked == 0 {
			t.Fatalf("%s (case %d): vacuous, %d decodes and %d edges blocked by interference",
				c.m.Name(), i, decoded, blocked)
		}
	}
}

// randomPlane returns n uniform points in a side × side square.
func randomPlane(r *rng.Source, n int, side float64) metric.Space {
	pts := make([]geom.Point, n)
	for v := range pts {
		pts[v] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	return metric.NewEuclidean(pts)
}

// randomGraph returns the hop metric of a G(n, p) random graph.
func randomGraph(r *rng.Source, n int, p float64) metric.Space {
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	return metric.NewGraph(adj)
}

// radiiMatrix returns an n-node matrix space whose directed distances are
// exactly comm for a quarter of the pairs, exactly interf for another
// quarter, and uniform in [0, 1.5·interf) for the rest.
func radiiMatrix(r *rng.Source, n int, comm, interf float64) metric.Space {
	m := metric.NewMatrix(n, 0)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			d := r.Range(0, 1.5*interf)
			switch r.Intn(4) {
			case 0:
				d = comm
			case 1:
				d = interf
			}
			m.Set(u, v, d)
		}
	}
	return m
}

// randomTransmitters returns an ascending transmitter set, each node in it
// with probability p.
func randomTransmitters(r *rng.Source, n int, p float64) []int {
	var tx []int
	for v := 0; v < n; v++ {
		if r.Bernoulli(p) {
			tx = append(tx, v)
		}
	}
	return tx
}
