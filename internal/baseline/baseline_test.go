package baseline

import (
	"math"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/sim"
)

func node(id int, seed uint64) *sim.Node {
	return &sim.Node{ID: id, RNG: rng.New(seed)}
}

func TestDecayCyclesProbabilities(t *testing.T) {
	d := NewDecay(16, 1) // cycle length 4
	want := []float64{0.5, 0.25, 0.125, 0.0625, 0.5, 0.25}
	for i, w := range want {
		if got := d.TransmitProb(); math.Abs(got-w) > 1e-12 {
			t.Fatalf("step %d: p = %v, want %v", i, got, w)
		}
		d.Act(node(0, 1), 0)
	}
}

// TestDecayProbExact pins decayProb bit for bit to math.Pow(2, -(k+1)) at
// every cycle step k a decay protocol can reach: the longest cycle,
// ⌈log₂ n⌉ for the largest n, has 63 steps.
func TestDecayProbExact(t *testing.T) {
	if c := NewDecay(math.MaxInt, 0).cycleLen; c != 63 {
		t.Fatalf("longest decay cycle has %d steps, want 63", c)
	}
	for k := 0; k < 63; k++ {
		got, want := decayProb(k), math.Pow(2, -float64(k+1))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decayProb(%d) = %v, want math.Pow's %v", k, got, want)
		}
	}
}

func TestDecayStopsOnAck(t *testing.T) {
	d := NewDecay(16, 1)
	d.Observe(node(0, 1), 0, &sim.Observation{Transmitted: true, Acked: true})
	if !d.Done() {
		t.Fatal("decay must stop on acknowledged delivery")
	}
	if d.Act(node(0, 1), 0).Transmit || d.TransmitProb() != 0 {
		t.Fatal("stopped decay must be silent")
	}
}

func TestDecaySmallN(t *testing.T) {
	d := NewDecay(1, 1) // clamped to n=2 → cycle length 1
	if got := d.TransmitProb(); got != 0.5 {
		t.Fatalf("degenerate decay p = %v", got)
	}
}

func TestFixedProbClamp(t *testing.T) {
	f := NewFixedProb(1, 5, 1)
	if f.TransmitProb() != 0.5 {
		t.Fatalf("p must clamp at 1/2, got %v", f.TransmitProb())
	}
	f2 := NewFixedProb(20, 1, 1)
	if got := f2.TransmitProb(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("p = %v, want 0.05", got)
	}
	f3 := NewFixedProb(0, 1, 1) // degenerate degree clamps to 1
	if f3.TransmitProb() != 0.5 {
		t.Fatal("degenerate degree must clamp")
	}
}

func TestFixedProbTransmitRate(t *testing.T) {
	f := NewFixedProb(10, 1, 1)
	n := node(0, 7)
	tx := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if f.Act(n, 0).Transmit {
			tx++
		}
	}
	rate := float64(tx) / trials
	if math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("rate = %v, want ~0.1", rate)
	}
}

func TestRoundRobinSchedule(t *testing.T) {
	const n = 5
	rrs := make([]*RoundRobin, n)
	for i := range rrs {
		rrs[i] = NewRoundRobin(n, int64(i))
	}
	for tick := 0; tick < 3*n; tick++ {
		txers := 0
		for i, rr := range rrs {
			if rr.Act(node(i, 1), 0).Transmit {
				txers++
				if i != tick%n {
					t.Fatalf("tick %d: node %d transmitted out of turn", tick, i)
				}
			}
		}
		if txers != 1 {
			t.Fatalf("tick %d: %d transmitters, want exactly 1", tick, txers)
		}
	}
}

func TestRoundRobinStopsOnAck(t *testing.T) {
	rr := NewRoundRobin(3, 1)
	rr.Observe(node(0, 1), 0, &sim.Observation{Transmitted: true, Acked: true})
	if rr.Act(node(0, 1), 0).Transmit {
		t.Fatal("stopped round-robin node must be silent in its slot")
	}
}

func TestDecayBcastWakesOnReceipt(t *testing.T) {
	d := NewDecayBcast(16, 42, false)
	if d.Informed() || d.Act(node(1, 1), 0).Transmit {
		t.Fatal("uninformed flooding node must be silent")
	}
	d.Observe(node(1, 1), 0, &sim.Observation{
		Received: []sim.Recv{{From: 0, Msg: sim.Message{Kind: KindBaseline, Data: 42}}},
	})
	if !d.Informed() {
		t.Fatal("receipt must inform")
	}
	if d.TransmitProb() != 0.5 {
		t.Fatalf("first decay step p = %v", d.TransmitProb())
	}
}

func TestDecayBcastSourceStartsInformed(t *testing.T) {
	if !NewDecayBcast(16, 42, true).Informed() {
		t.Fatal("source must start informed")
	}
}

// Integration: all three local baselines complete on a small line network
// with free acknowledgements.
func TestBaselinesIntegration(t *testing.T) {
	const k = 8
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	mk := func(factory sim.ProtocolFactory) *sim.Sim {
		s, err := sim.New(sim.Config{
			Space: metric.NewEuclidean(pts),
			Model: model.NewSINR(8, 1, 1, 3, 0.1),
			P:     8, Zeta: 3, Eps: 0.1,
			Options: sim.Options{
				Seed:       9,
				Primitives: sim.FreeAck,
			},
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := map[string]sim.ProtocolFactory{
		"decay":      func(id int) sim.Protocol { return NewDecay(k, int64(id)) },
		"fixed":      func(id int) sim.Protocol { return NewFixedProb(2, 1, int64(id)) },
		"roundrobin": func(id int) sim.Protocol { return NewRoundRobin(k, int64(id)) },
	}
	for name, factory := range cases {
		t.Run(name, func(t *testing.T) {
			s := mk(factory)
			_, ok := s.RunUntil(func(s *sim.Sim) bool {
				for v := 0; v < k; v++ {
					if s.FirstMassDelivery(v) < 0 {
						return false
					}
				}
				return true
			}, 20000)
			if !ok {
				t.Fatalf("%s did not complete local broadcast", name)
			}
		})
	}
}

func TestDecayBcastIntegration(t *testing.T) {
	const k = 8
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	s, err := sim.New(sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		Options: sim.Options{Seed: 9},
	}, func(id int) sim.Protocol { return NewDecayBcast(k, 42, id == 0) })
	if err != nil {
		t.Fatal(err)
	}
	s.MarkInformed(0)
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if s.FirstDecode(v) < 0 {
				return false
			}
		}
		return true
	}, 20000)
	if !ok {
		t.Fatal("decay flooding did not inform the line")
	}
}

func TestRoundRobinDegenerate(t *testing.T) {
	rr := NewRoundRobin(0, 1) // clamps to n=1: transmits every slot
	if !rr.Act(node(0, 1), 0).Transmit {
		t.Fatal("degenerate round robin must transmit")
	}
}

func TestDecayBcastDegenerateN(t *testing.T) {
	d := NewDecayBcast(1, 1, true) // clamps to n=2 → cycle length 1
	if d.TransmitProb() != 0.5 {
		t.Fatalf("p = %v", d.TransmitProb())
	}
}

func TestDecayBcastUninformedProbZero(t *testing.T) {
	d := NewDecayBcast(16, 1, false)
	if d.TransmitProb() != 0 {
		t.Fatal("uninformed flooding node must report p = 0")
	}
}

func TestFixedProbDoneAccessor(t *testing.T) {
	f := NewFixedProb(4, 1, 1)
	if f.Done() {
		t.Fatal("fresh node must not be done")
	}
	f.Observe(node(0, 1), 0, &sim.Observation{Transmitted: true, Acked: true})
	if !f.Done() || f.TransmitProb() != 0 {
		t.Fatal("acked node must be done and silent")
	}
}
