package sim

import (
	"fmt"
	"strings"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/pathloss"
	"udwn/internal/rng"
	"udwn/internal/workload"
)

// TestDeliveryRadiusOracle checks the delivery flags against a brute O(n)
// recount after every slot: transmitter u mass-delivers (massBuf) iff every
// alive v ≠ u with d(u,v) ≤ rb decoded u this slot, and ACK-delivers
// (massAckBuf) iff the same holds at rbAck. SenseEps below, equal to and
// above Eps puts the ACK radius above, at and below the measurement radius.
// Four spaces, all under churn, cover both drivers: the indexed reception
// walk on a static and a dynamic Euclidean space, and the scan driver's
// delivery walk over the O(n) scan (the grid dropped after New, as runDiff
// does) and over the neighbour cache (a static shadowed space). Mixed runs
// add the other ways a neighbour can miss u: attenuated transmissions,
// whose walk is wider than their cutoff, a second channel, and an injector
// whose DropRecv loses decoded frames. The indexed walk decides delivery
// without a neighbourhood query. The heavy-slot case transmits with
// probability 0.25, so the decode floor narrows walks below rNeigh with a
// delivery flag still set, and deliveryWalk finishes them.
func TestDeliveryRadiusOracle(t *testing.T) {
	spaces := []struct{ name, kind string }{
		{"dynamic=false", "static"}, {"dynamic=true", "dynamic"}, {"scan", "scan"}, {"shadowed", "shadowed"},
	}
	for _, senseEps := range []float64{0.05, 0.1, 0.3} {
		for _, sp := range spaces {
			for _, mixed := range []bool{false, true} {
				name := fmt.Sprintf("sense=%v/%s", senseEps, sp.name)
				if mixed {
					name += "/mixed"
				}
				t.Run(name, func(t *testing.T) { checkDelivery(t, senseEps, sp.kind, mixed, 0.04) })
			}
		}
	}
	t.Run("sense=0.3/heavy", func(t *testing.T) { checkDelivery(t, 0.3, "static", false, 0.25) })
}

// checkDelivery runs one TestDeliveryRadiusOracle configuration, nodes
// transmitting with probability p.
func checkDelivery(t *testing.T, senseEps float64, space string, mixed bool, p float64) {
	const n, ticks = 200, 150
	side := workload.SideForDegree(n, 12, 10)
	var sp metric.Space = metric.NewEuclidean(workload.UniformDisc(n, side, 41))
	if space == "shadowed" {
		sp = pathloss.NewShadowed(sp, 0.1, 41)
	}
	cfg := Config{
		Space: sp,
		Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Options: Options{
			SenseEps:   senseEps,
			Seed:       41,
			Primitives: ACK,
			Dynamic:    space == "dynamic",
		},
	}
	proto := func(int) Protocol { return fixedProb(p) }
	if mixed {
		cfg.Channels = 2
		cfg.Injector = &diffInjector{seed: 47}
		var log strings.Builder
		proto = func(int) Protocol {
			return &diffProto{p: p, nchan: 2, scales: true, log: &log}
		}
	}
	s, err := New(cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	if space == "scan" {
		s.grid = nil
	}
	indexed, want := space == "static" || space == "dynamic", "scan"
	if indexed {
		want = "grid"
	}
	if got := s.IndexMode(); got != want {
		t.Fatalf("IndexMode = %q, want %q", got, want)
	}
	drv := rng.New(43)
	var massSeen, missSeen, splitSeen, deliveryWalks int
	for tick := 0; tick < ticks; tick++ {
		if drv.Bernoulli(0.1) {
			s.Kill(drv.Intn(n))
		}
		if drv.Bernoulli(0.1) {
			s.Revive(drv.Intn(n))
		}
		if cfg.Dynamic {
			for j := 0; j < 3; j++ {
				p := geom.Point{X: drv.Range(0, side), Y: drv.Range(0, side)}
				if err := s.Move(drv.Intn(n), p); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Step()
		for _, u := range s.txBuf {
			if r := s.decodeRadius(u); indexed && r < s.rNeigh && openAfterWalk(s, u, r) {
				deliveryWalks++
			}
			mass, ack := bruteDelivery(s, u, s.rb), bruteDelivery(s, u, s.rbAck)
			if s.massBuf[u] != mass || s.massAckBuf[u] != ack {
				t.Fatalf("tick %d transmitter %d: mass=%v ack=%v, brute mass=%v ack=%v",
					tick, u, s.massBuf[u], s.massAckBuf[u], mass, ack)
			}
			if mass {
				massSeen++
			} else {
				missSeen++
			}
			if mass != ack {
				splitSeen++
			}
		}
	}
	if massSeen == 0 || missSeen == 0 {
		t.Fatalf("vacuous: %d mass deliveries, %d misses", massSeen, missSeen)
	}
	if senseEps != 0.1 && splitSeen == 0 {
		t.Fatal("vacuous: the two radii never disagreed")
	}
	if p >= 0.25 && deliveryWalks == 0 {
		t.Fatal("vacuous: no heavy-slot walk ended below rNeigh with a delivery flag set")
	}
	if q := s.IndexStats().NeighborQueries; indexed && q != 0 {
		t.Fatalf("indexed run made %d neighbourhood queries, want 0", q)
	}
}

// bruteDelivery reports whether every alive v ≠ u within r of u decoded u
// this slot, scanning all nodes.
func bruteDelivery(s *Sim, u int, r float64) bool {
	for v := 0; v < s.N(); v++ {
		if v == u || !s.Alive(v) || s.Space().Dist(u, v) > r {
			continue
		}
		if !s.heardFrom(v, u) {
			return false
		}
	}
	return true
}
