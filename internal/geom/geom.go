// Package geom provides planar geometry primitives and a uniform grid
// spatial index used to accelerate neighbourhood queries in the simulator.
//
// Nodes in most workloads live in the Euclidean plane (the canonical
// (r, λ=2)-bounded-independence metric of the paper); the grid index makes
// "all nodes within distance r of p" queries O(occupancy) instead of O(n).
package geom

import "math"

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance, avoiding the sqrt when only
// comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point {
	return Point{p.X + q.X, p.Y + q.Y}
}

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point {
	return Point{p.X * s, p.Y * s}
}

// Grid is a uniform-cell spatial hash over a set of indexed points.
// Points are identified by their integer index (the simulator's node id).
// The zero value is not usable; construct with NewGrid.
type Grid struct {
	cell    float64
	minX    float64
	minY    float64
	cols    int
	rows    int
	cells   [][]int32
	points  []Point
	present []bool
}

// NewGrid builds a grid over points with the given cell size. Cell size
// should be on the order of the query radius for best performance.
// It panics if cell <= 0, which is a programming error.
func NewGrid(points []Point, cell float64) *Grid {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	g := &Grid{
		cell:    cell,
		points:  make([]Point, len(points)),
		present: make([]bool, len(points)),
	}
	copy(g.points, points)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range points {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if len(points) == 0 {
		minX, minY, maxX, maxY = 0, 0, 0, 0
	}
	g.minX, g.minY = minX, minY
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	if g.cols < 1 {
		g.cols = 1
	}
	if g.rows < 1 {
		g.rows = 1
	}
	g.cells = make([][]int32, g.cols*g.rows)
	for i, p := range points {
		ci := g.cellIndex(p)
		g.cells[ci] = append(g.cells[ci], int32(i))
		g.present[i] = true
	}
	return g
}

func (g *Grid) cellIndex(p Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	cx = clamp(cx, 0, g.cols-1)
	cy = clamp(cy, 0, g.rows-1)
	return cy*g.cols + cx
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Len returns the number of points the grid was built over (present or not).
func (g *Grid) Len() int { return len(g.points) }

// Point returns the location of point i.
func (g *Grid) Point(i int) Point { return g.points[i] }

// Present reports whether point i is currently in the index.
func (g *Grid) Present(i int) bool { return g.present[i] }

// Remove removes point i from the index (e.g. a departed node).
// Removing an absent point is a no-op.
func (g *Grid) Remove(i int) {
	if !g.present[i] {
		return
	}
	g.present[i] = false
	ci := g.cellIndex(g.points[i])
	g.cells[ci] = deleteVal(g.cells[ci], int32(i))
}

// Insert re-inserts point i (e.g. a returning node), optionally at a new
// location. Inserting a present point first removes it.
func (g *Grid) Insert(i int, p Point) {
	if g.present[i] {
		g.Remove(i)
	}
	g.points[i] = p
	ci := g.cellIndex(p)
	g.cells[ci] = append(g.cells[ci], int32(i))
	g.present[i] = true
}

// Move relocates point i to p, updating the index.
func (g *Grid) Move(i int, p Point) {
	if !g.present[i] {
		g.points[i] = p
		return
	}
	oldCI := g.cellIndex(g.points[i])
	newCI := g.cellIndex(p)
	g.points[i] = p
	if oldCI == newCI {
		return
	}
	g.cells[oldCI] = deleteVal(g.cells[oldCI], int32(i))
	g.cells[newCI] = append(g.cells[newCI], int32(i))
}

func deleteVal(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Iter streams the present points within distance r of a query point, in the
// same cell-row-major order Within reports them. It is a plain value — no
// heap allocation per query — which is what lets the simulator's slot loop
// run grid queries allocation-free. An Iter must not outlive mutations of
// its Grid. The zero value is not usable; obtain one from IterWithin.
type Iter struct {
	g        *Grid
	q        Point
	r2       float64
	cx0, cx1 int
	cy1      int
	cx, cy   int
	cell     []int32
	pos      int
	d2       float64
}

// IterWithin returns an iterator over the present points within distance r
// of q, inclusive of points exactly at distance r. The point at q itself is
// included if indexed; callers filter self. Within and CountWithin are thin
// wrappers over the same iterator, so all three agree on membership.
func (g *Grid) IterWithin(q Point, r float64) Iter {
	cx0, cy0, cx1, cy1 := g.box(q, r)
	return Iter{
		g: g, q: q, r2: r * r,
		cx0: cx0, cx1: cx1, cy1: cy1,
		cx: cx0, cy: cy0,
		cell: g.cells[cy0*g.cols+cx0],
	}
}

// box returns the inclusive cell-column and cell-row ranges a query of
// radius r around q visits.
func (g *Grid) box(q Point, r float64) (cx0, cy0, cx1, cy1 int) {
	cx0 = clamp(int((q.X-r-g.minX)/g.cell), 0, g.cols-1)
	cy0 = clamp(int((q.Y-r-g.minY)/g.cell), 0, g.rows-1)
	cx1 = clamp(int((q.X+r-g.minX)/g.cell), 0, g.cols-1)
	cy1 = clamp(int((q.Y+r-g.minY)/g.cell), 0, g.rows-1)
	return cx0, cy0, cx1, cy1
}

// BoxCells returns how many cells IterWithin(q, r) visits, and the number of
// cells in the whole grid: a query's cost is proportional to the first, a
// sweep over every point's to the second.
func (g *Grid) BoxCells(q Point, r float64) (box, total int) {
	cx0, cy0, cx1, cy1 := g.box(q, r)
	return (cx1 - cx0 + 1) * (cy1 - cy0 + 1), len(g.cells)
}

// Next returns the next in-range point id, or ok = false when exhausted.
func (it *Iter) Next() (id int, ok bool) {
	for {
		for it.pos < len(it.cell) {
			cand := it.cell[it.pos]
			it.pos++
			if d2 := it.g.points[cand].Dist2(it.q); d2 <= it.r2 {
				it.d2 = d2
				return int(cand), true
			}
		}
		it.cx++
		if it.cx > it.cx1 {
			it.cx = it.cx0
			it.cy++
			if it.cy > it.cy1 {
				return 0, false
			}
		}
		it.cell = it.g.cells[it.cy*it.g.cols+it.cx]
		it.pos = 0
	}
}

// Dist2 returns the squared distance Next computed for the point it returned.
func (it *Iter) Dist2() float64 { return it.d2 }

// Within appends to dst the indices of all present points within distance r
// of q (inclusive of points exactly at distance r) and returns the extended
// slice. The point at q itself is included if indexed; callers filter self.
func (g *Grid) Within(q Point, r float64, dst []int) []int {
	it := g.IterWithin(q, r)
	for {
		id, ok := it.Next()
		if !ok {
			return dst
		}
		dst = append(dst, id)
	}
}

// CountWithin returns the number of present points within distance r of q.
func (g *Grid) CountWithin(q Point, r float64) int {
	n := 0
	it := g.IterWithin(q, r)
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}
