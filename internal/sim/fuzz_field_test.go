package sim

import (
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// fuzzNodes is the population size of the field fuzz harness: small enough
// for thousands of executions per second, large enough for nontrivial
// interference compositions across two channels.
const fuzzNodes = 40

// fuzzState is the externally-driven transmit state of the fuzzed sim: each
// node transmits iff its tx bit is set, on channel (id+flip)%2, at double
// power iff its hi bit is set. The fuzzer mutates the bits between ticks, so
// the composition is a pure function of the program, consuming no RNG.
type fuzzState struct {
	tx, hi, flip [fuzzNodes]bool
}

type fuzzProto struct {
	st *fuzzState
	id int
}

func (p *fuzzProto) Act(n *Node, slot int) Action {
	if !p.st.tx[p.id] {
		return Action{}
	}
	act := Action{Transmit: true, Msg: Message{Kind: 5, Data: int64(p.id)}}
	ch := p.id % 2
	if p.st.flip[p.id] {
		ch = 1 - ch
	}
	act.Channel = int32(ch)
	if p.st.hi[p.id] {
		act.PowerScale = 2
	}
	return act
}

func (p *fuzzProto) Observe(n *Node, slot int, obs *Observation) {}

// FuzzFieldDelta drives a sim through a fuzzer-chosen mutation program —
// transmit toggles, kills, revives, moves, channel retunes, power flips —
// and demands the field engine's demand contract (checkField) after every
// slot, under the CD|ACK, ACK-only, CD and FreeAck mixes.
func FuzzFieldDelta(f *testing.F) {
	f.Add(uint64(1), []byte("a5K9rMv2QpX0dTzL8wBn4cYh"))
	f.Add(uint64(2), []byte("kill&revive\x00\x01\x02\xffmove~~portal"))
	f.Add(uint64(3), []byte("\x03\x07\x30\x01\x05\x60\x04\x0b\x90\x02\x07\x00\x00\x01\x41\x03\x1f\x77"))
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		prims := CD | ACK
		switch seed % 4 {
		case 1:
			prims = ACK
		case 2:
			prims = CD
		case 3:
			prims = FreeAck
		}
		side := workload.SideForDegree(fuzzNodes, 12, 9)
		var st fuzzState
		pts := workload.UniformDisc(fuzzNodes, side, seed|1)
		s, err := New(Config{
			Space: metric.NewEuclidean(pts),
			Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			P:     1500, Zeta: 3, Eps: 0.1,
			Options: Options{
				Seed:       seed,
				Primitives: prims,
				Channels:   2,
				Dynamic:    true,
			},
		}, func(id int) Protocol { return &fuzzProto{st: &st, id: id} })
		if err != nil {
			t.Fatal(err)
		}
		// Three bytes per tick: opcode, node selector, operand. Cap the run
		// so pathological inputs stay fast.
		ticks := len(prog)/3 + 2
		if ticks > 200 {
			ticks = 200
		}
		for i := 0; i < ticks; i++ {
			if 3*i+2 < len(prog) {
				op, vb, x := prog[3*i], prog[3*i+1], prog[3*i+2]
				v := int(vb) % fuzzNodes
				switch op % 6 {
				case 0:
					st.tx[v] = !st.tx[v]
				case 1:
					s.Kill(v)
				case 2:
					s.Revive(v)
				case 3:
					p := geom.Point{
						X: side * float64(x) / 255,
						Y: side * float64(x^0x5a) / 255,
					}
					if err := s.Move(v, p); err != nil {
						t.Fatal(err)
					}
				case 4:
					st.hi[v] = !st.hi[v]
				case 5:
					st.flip[v] = !st.flip[v]
				}
			}
			s.Step()
			checkField(t, s)
		}
	})
}
