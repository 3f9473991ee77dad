package sim

import (
	"fmt"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/workload"
)

// TestDeliveryRadiusOracle checks Phase 4 against a brute O(n)
// recomputation after every slot: transmitter u mass-delivers (massBuf) iff
// every alive v ≠ u with d(u,v) ≤ rb decoded u this slot, and ACK-delivers
// (massAckBuf) iff the same holds at rbAck. SenseEps below, equal to and
// above Eps puts the ACK radius above, at and below the measurement radius,
// on a static space (neighbour cache) and a dynamic one (live index), both
// under churn.
func TestDeliveryRadiusOracle(t *testing.T) {
	const n, ticks = 200, 150
	for _, senseEps := range []float64{0.05, 0.1, 0.3} {
		for _, dynamic := range []bool{false, true} {
			t.Run(fmt.Sprintf("sense=%v/dynamic=%v", senseEps, dynamic), func(t *testing.T) {
				side := workload.SideForDegree(n, 12, 10)
				s, err := New(Config{
					Space: metric.NewEuclidean(workload.UniformDisc(n, side, 41)),
					Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
					P:     1500, Zeta: 3, Noise: 1, Eps: 0.1, SenseEps: senseEps,
					Seed:       41,
					Primitives: ACK,
					Dynamic:    dynamic,
				}, func(int) Protocol { return fixedProb(0.04) })
				if err != nil {
					t.Fatal(err)
				}
				drv := rng.New(43)
				var massSeen, missSeen, splitSeen int
				for tick := 0; tick < ticks; tick++ {
					if drv.Bernoulli(0.1) {
						s.Kill(drv.Intn(n))
					}
					if drv.Bernoulli(0.1) {
						s.Revive(drv.Intn(n))
					}
					if dynamic {
						for j := 0; j < 3; j++ {
							p := geom.Point{X: drv.Range(0, side), Y: drv.Range(0, side)}
							if err := s.Move(drv.Intn(n), p); err != nil {
								t.Fatal(err)
							}
						}
					}
					s.Step()
					for _, u := range s.txBuf {
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
			})
		}
	}
}

// bruteDelivery reports whether every alive v ≠ u within r of u decoded u
// this slot, scanning all nodes.
func bruteDelivery(s *Sim, u int, r float64) bool {
	for v := 0; v < s.N(); v++ {
		if v == u || !s.Alive(v) || s.Space().Dist(u, v) > r {
			continue
		}
		got := false
		for _, rc := range s.recvBuf[v] {
			if rc.From == u {
				got = true
				break
			}
		}
		if !got {
			return false
		}
	}
	return true
}
