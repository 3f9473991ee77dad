package sim

import (
	"math"
	"testing"
	"testing/quick"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/rng"
	"udwn/internal/workload"
)

// TestSuccClearConformance verifies the unified model's contract (Def. 1)
// end to end for every shipped model: whenever a transmitter u satisfies
// the SuccClear premise in a slot — no other transmitter inside
// D(u, ρ_c·R) and total interference at u at most I_c — then every alive
// neighbour of u decodes the transmission. This is the guarantee all the
// paper's proofs lean on; the concrete models may deliver more, never less.
func TestSuccClearConformance(t *testing.T) {
	models := map[string]func() model.Model{
		"sinr":     func() model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
		"udg":      func() model.Model { return model.NewUDG(10) },
		"qudg":     func() model.Model { return model.NewQUDG(7.5, 10, nil) },
		"protocol": func() model.Model { return model.NewProtocol(10, 20) },
	}
	for name, mk := range models {
		mk := mk
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool {
				return succClearHolds(mk(), seed)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// succClearHolds runs random traffic and checks the SuccClear implication
// on every slot.
func succClearHolds(mdl model.Model, seed uint64) bool {
	r := rng.New(seed)
	n := 16 + r.Intn(32)
	pts := workload.UniformDisc(n, 35, seed^0x5cc)
	space := metric.NewEuclidean(pts)
	violation := false

	var s *Sim
	cfg := Config{
		Space: space,
		Model: mdl,
		P:     1500, Zeta: 3, Eps: 0.1,
		Options: Options{
			Seed: seed,
			Observer: func(ev SlotEvent) {
				if checkSuccClear(s, mdl, ev) != "" {
					violation = true
				}
			},
		},
	}
	var err error
	s, err = New(cfg, func(int) Protocol { return fixedProb(0.1) })
	if err != nil {
		return false
	}
	s.Run(30)
	return !violation
}

// checkSuccClear returns a non-empty description if a transmitter met the
// SuccClear premise but some neighbour missed the message.
func checkSuccClear(s *Sim, mdl model.Model, ev SlotEvent) string {
	sc := mdl.Params()
	for _, u := range ev.Transmitters {
		// Premise 1: exclusion vicinity empty.
		clearVicinity := true
		if sc.RhoC > 0 {
			for _, w := range ev.Transmitters {
				if w != u && s.Space().Dist(w, u) < sc.RhoC*mdl.R() {
					clearVicinity = false
					break
				}
			}
		}
		if !clearVicinity {
			continue
		}
		// Premise 2: total interference at u within I_c.
		if !math.IsInf(sc.Ic, 1) {
			interference := 0.0
			for _, w := range ev.Transmitters {
				if w != u {
					interference += s.field.Power(w, u)
				}
			}
			if interference > sc.Ic {
				continue
			}
		}
		// Conclusion: every alive neighbour decoded u this slot.
		delivered := false
		for _, m := range ev.MassDeliverers {
			if m == u {
				delivered = true
				break
			}
		}
		if !delivered {
			return "premise held but delivery failed"
		}
	}
	return ""
}
