package absmac

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/sim"
)

// recorderApp records the callback stream.
type recorderApp struct {
	initial []int64
	recvs   []int64
	acks    []int64
}

func (a *recorderApp) Init(e *Endpoint) {
	for _, p := range a.initial {
		e.Send(p)
	}
}
func (a *recorderApp) OnRecv(e *Endpoint, from int, payload int64) {
	a.recvs = append(a.recvs, payload)
}
func (a *recorderApp) OnAck(e *Endpoint, payload int64) {
	a.acks = append(a.acks, payload)
}

func macSim(t *testing.T, k int, apps map[int]*recorderApp) *sim.Sim {
	t.Helper()
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	s, err := sim.New(sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		AckScale: 8,
		Options: sim.Options{
			Seed:       3,
			Primitives: sim.CD | sim.ACK,
		},
	}, func(id int) sim.Protocol {
		app, ok := apps[id]
		if !ok {
			app = &recorderApp{}
			apps[id] = app
		}
		return New(id, k, app)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFIFOAckedDelivery(t *testing.T) {
	const k = 6
	apps := map[int]*recorderApp{0: {initial: []int64{101, 102, 103}}}
	s := macSim(t, k, apps)
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		return len(apps[0].acks) == 3
	}, 60000)
	if !ok {
		t.Fatal("queued broadcasts were not all acknowledged")
	}
	for i, want := range []int64{101, 102, 103} {
		if apps[0].acks[i] != want {
			t.Fatalf("acks out of order: %v", apps[0].acks)
		}
	}
	// The direct neighbour received every payload, in order.
	got := apps[1].recvs
	seen := map[int64]bool{}
	for _, p := range got {
		seen[p] = true
	}
	for _, want := range []int64{101, 102, 103} {
		if !seen[want] {
			t.Fatalf("neighbour missed payload %d; recvs = %v", want, got)
		}
	}
}

func TestPendingCounts(t *testing.T) {
	e := &Endpoint{ID: 1, N: 8}
	if e.Pending() != 0 || e.Sent() != 0 || e.Acked() != 0 {
		t.Fatal("fresh endpoint not empty")
	}
	e.Send(5)
	e.Send(6)
	if e.Pending() != 2 || e.Sent() != 2 {
		t.Fatalf("pending=%d sent=%d", e.Pending(), e.Sent())
	}
}

func TestAppCanSendFromCallbacks(t *testing.T) {
	// An app that re-broadcasts everything it hears exactly once — the echo
	// pattern higher layers use. Two hops away must still learn the payload.
	const k = 6
	echos := map[int]*echoApp{}
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	s, err := sim.New(sim.Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(8, 1, 1, 3, 0.1),
		P:     8, Zeta: 3, Eps: 0.1,
		AckScale: 8,
		Options: sim.Options{
			Seed:       7,
			Primitives: sim.CD | sim.ACK,
		},
	}, func(id int) sim.Protocol {
		app := &echoApp{seed: id == 0}
		echos[id] = app
		return New(id, k, app)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ok := s.RunUntil(func(s *sim.Sim) bool {
		for v := 0; v < k; v++ {
			if !echos[v].heard {
				return false
			}
		}
		return true
	}, 100000)
	if !ok {
		t.Fatal("echo flood did not reach the whole line")
	}
}

type echoApp struct {
	seed  bool
	heard bool
}

func (a *echoApp) Init(e *Endpoint) {
	if a.seed {
		a.heard = true
		e.Send(99)
	}
}
func (a *echoApp) OnRecv(e *Endpoint, from int, payload int64) {
	if payload == 99 && !a.heard {
		a.heard = true
		e.Send(99)
	}
}
func (a *echoApp) OnAck(*Endpoint, int64) {}

func TestNilAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 8, nil)
}

func TestIdleEndpointSilent(t *testing.T) {
	p := New(0, 8, &recorderApp{})
	n := &sim.Node{ID: 0, RNG: rng.New(1)}
	for i := 0; i < 50; i++ {
		if p.Act(n, 0).Transmit {
			t.Fatal("idle MAC must not transmit")
		}
		p.Observe(n, 0, &sim.Observation{})
	}
	if p.TransmitProb() != 0 {
		t.Fatal("idle MAC probability must be 0")
	}
}

func TestEndpointAccessorAndInFlightPending(t *testing.T) {
	app := &recorderApp{initial: []int64{1}}
	p := New(3, 8, app)
	if p.Endpoint().ID != 3 || p.Endpoint().N != 8 {
		t.Fatal("endpoint identity wrong")
	}
	n := &sim.Node{ID: 3, RNG: rng.New(9)}
	p.Act(n, 0) // Init fires, message dequeued into flight
	if p.Endpoint().Pending() != 1 {
		t.Fatalf("in-flight message must count as pending: %d", p.Endpoint().Pending())
	}
	if p.TransmitProb() == 0 {
		t.Fatal("in-flight broadcast must contend")
	}
}
