package dynamics

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

type silent struct{}

func (silent) Act(*sim.Node, int) sim.Action            { return sim.Action{} }
func (silent) Observe(*sim.Node, int, *sim.Observation) {}

func newSim(t *testing.T, n int, dynamic bool) *sim.Sim {
	t.Helper()
	pts := workload.UniformDisc(n, 30, 1)
	s, err := sim.New(sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Noise: 1, Eps: 0.1,
		Options: sim.Options{
			Seed:    2,
			Dynamic: dynamic,
		},
	}, func(int) sim.Protocol { return silent{} })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPoissonChurnKillsAndRevives(t *testing.T) {
	s := newSim(t, 200, false)
	c := NewPoissonChurn(0.5, 7)
	c.Apply(s, 0)
	killed := 200 - s.AliveCount()
	if killed < 50 || killed > 150 {
		t.Fatalf("killed %d of 200 at rate 0.5", killed)
	}
	// Dead nodes revive at the same rate.
	before := s.AliveCount()
	c.Apply(s, 1)
	_ = before
	if s.AliveCount() == 0 || s.AliveCount() == 200 {
		t.Fatalf("population degenerate: %d", s.AliveCount())
	}
}

func TestPoissonChurnProtect(t *testing.T) {
	s := newSim(t, 100, false)
	c := NewPoissonChurn(1, 7) // kill everything unprotected
	c.Protect = map[int]bool{3: true, 4: true}
	c.Apply(s, 0)
	if !s.Alive(3) || !s.Alive(4) {
		t.Fatal("protected nodes must survive")
	}
	if s.AliveCount() != 2 {
		t.Fatalf("AliveCount = %d, want 2", s.AliveCount())
	}
}

func TestBurstChurnCycle(t *testing.T) {
	s := newSim(t, 100, false)
	c := NewBurstChurn(10, 0.3, 5)
	c.Apply(s, 0)
	if got := s.AliveCount(); got != 70 {
		t.Fatalf("after burst: %d alive, want 70", got)
	}
	// Not a boundary: nothing happens.
	c.Apply(s, 5)
	if got := s.AliveCount(); got != 70 {
		t.Fatalf("mid-period churn: %d", got)
	}
	// Next boundary: the previous batch revives first, then a new batch of
	// 0.3 · 100 dies, leaving 70 alive again (with different membership).
	downedBefore := append([]int(nil), c.downed...)
	c.Apply(s, 10)
	if got := s.AliveCount(); got != 70 {
		t.Fatalf("after second burst: %d alive, want 70", got)
	}
	for _, v := range downedBefore {
		if !s.Alive(v) && !contains(c.downed, v) {
			t.Fatalf("node %d from the first batch neither revived nor re-killed", v)
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestBurstChurnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBurstChurn(0, 0.5, 1)
}

func TestTargetedChurnHitsVicinity(t *testing.T) {
	s := newSim(t, 200, false)
	victim := 0
	c := NewTargetedChurn(victim, 10, 1, 3) // cycle every vicinity node
	c.Apply(s, 0)
	if !s.Alive(victim) {
		t.Fatal("victim itself must never be churned")
	}
	sp := s.Space()
	for v := 1; v < 200; v++ {
		near := sp.Dist(v, victim) < 10
		if near && s.Alive(v) {
			t.Fatalf("vicinity node %d survived rate-1 targeted churn", v)
		}
		if !near && !s.Alive(v) {
			t.Fatalf("far node %d was churned", v)
		}
	}
	// With the churn switched off, the next application only revives the
	// pending batch as fresh arrivals.
	c.Rate = 0
	c.Apply(s, 1)
	if s.AliveCount() != 200 {
		t.Fatalf("revive failed: %d alive", s.AliveCount())
	}
}

func TestRandomWalkMovesWithinBounds(t *testing.T) {
	s := newSim(t, 50, true)
	w := NewRandomWalk(2, 30, 9)
	e := s.Space().(*metric.Euclidean)
	before := make([]geom.Point, 50)
	for i := range before {
		before[i] = e.Point(i)
	}
	for tick := 0; tick < 20; tick++ {
		w.Apply(s, tick)
	}
	moved := 0
	for i := range before {
		p := e.Point(i)
		if p != before[i] {
			moved++
		}
		if p.X < 0 || p.X > 30 || p.Y < 0 || p.Y > 30 {
			t.Fatalf("node %d left the domain: %v", i, p)
		}
		if p.Dist(before[i]) > 20*2+1e-9 {
			t.Fatalf("node %d moved too far: %v", i, p.Dist(before[i]))
		}
	}
	if moved < 45 {
		t.Fatalf("only %d/50 nodes moved", moved)
	}
}

func TestRandomWalkStaticSimIsNoop(t *testing.T) {
	s := newSim(t, 20, false) // static sim: Move errors, walk must not panic
	w := NewRandomWalk(1, 30, 9)
	w.Apply(s, 0)
	e := s.Space().(*metric.Euclidean)
	pts := workload.UniformDisc(20, 30, 1)
	for i := range pts {
		if e.Point(i) != pts[i] {
			t.Fatal("static sim must not move")
		}
	}
}

func TestComposeOrder(t *testing.T) {
	s := newSim(t, 50, false)
	var order []string
	a := driverFunc(func(*sim.Sim, int) { order = append(order, "a") })
	b := driverFunc(func(*sim.Sim, int) { order = append(order, "b") })
	Compose(a, b).Apply(s, 0)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

type driverFunc func(*sim.Sim, int)

func (f driverFunc) Apply(s *sim.Sim, tick int) { f(s, tick) }

func TestRunAndRunUntil(t *testing.T) {
	s := newSim(t, 30, false)
	calls := 0
	d := driverFunc(func(*sim.Sim, int) { calls++ })
	Run(s, d, 10)
	if calls != 10 || s.Tick() != 10 {
		t.Fatalf("Run: calls=%d tick=%d", calls, s.Tick())
	}
	ticks, ok := RunUntil(s, d, func(s *sim.Sim) bool { return s.Tick() >= 15 }, 100)
	if !ok || ticks != 5 {
		t.Fatalf("RunUntil = (%d, %v)", ticks, ok)
	}
	// nil driver works.
	Run(s, nil, 3)
	if s.Tick() != 18 {
		t.Fatal("nil driver Run failed")
	}
}

func TestDegreeTrackerStatic(t *testing.T) {
	s := newSim(t, 100, false)
	tr := NewDegreeTracker(0, 10)
	tr.Observe(s)
	base := tr.Degree()
	// Static network: repeated observation adds nothing.
	tr.Observe(s)
	tr.Observe(s)
	if tr.Degree() != base {
		t.Fatalf("static degree grew: %d → %d", base, tr.Degree())
	}
	// Ground truth.
	want := 0
	sp := s.Space()
	for v := 1; v < 100; v++ {
		if sp.Dist(v, 0) < 10 {
			want++
		}
	}
	if base != want {
		t.Fatalf("degree = %d, want %d", base, want)
	}
}

// A node that walks out of the vicinity and back is a fresh arrival each
// time it re-enters: two round trips count it three times in all.
func TestDegreeTrackerCountsReentry(t *testing.T) {
	s := newSim(t, 100, true)
	sp := s.Space().(*metric.Euclidean)
	walker, far := -1, -1
	for v := 1; v < 100; v++ {
		if d := sp.Dist(v, 0); d < 10 && walker == -1 {
			walker = v
		} else if d > 20 && far == -1 {
			far = v
		}
	}
	if walker == -1 || far == -1 {
		t.Skip("no vicinity neighbour or far node in this draw")
	}
	home, away := sp.Point(walker), sp.Point(far)
	tr := NewDegreeTracker(0, 10)
	tr.Observe(s)
	base := tr.Degree()
	for trip := 1; trip <= 2; trip++ {
		for _, p := range []geom.Point{away, home} {
			if err := s.Move(walker, p); err != nil {
				t.Fatal(err)
			}
			tr.Observe(s)
		}
		if got := tr.Degree(); got != base+trip {
			t.Fatalf("after %d round trip(s): degree = %d, want %d", trip, got, base+trip)
		}
	}
}

func TestDegreeTrackerCountsArrivals(t *testing.T) {
	s := newSim(t, 100, false)
	tr := NewDegreeTracker(0, 10)
	tr.Observe(s)
	base := tr.Degree()
	// Kill and revive a vicinity node: the fresh arrival counts again.
	victimNbr := -1
	sp := s.Space()
	for v := 1; v < 100; v++ {
		if sp.Dist(v, 0) < 10 {
			victimNbr = v
			break
		}
	}
	if victimNbr == -1 {
		t.Skip("no vicinity neighbour in this draw")
	}
	s.Kill(victimNbr)
	tr.Observe(s)
	s.Revive(victimNbr)
	tr.Observe(s)
	if tr.Degree() != base+1 {
		t.Fatalf("degree = %d, want %d (arrival must count)", tr.Degree(), base+1)
	}
}
