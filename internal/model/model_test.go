package model

import (
	"math"
	"testing"

	"udwn/internal/metric"
	"udwn/internal/pathloss"
)

// fakeView implements View over an explicit space and transmitter set, at
// slot tick.
type fakeView struct {
	space metric.Space
	field *pathloss.Field
	tx    []int
	tick  int
}

func newFakeView(space metric.Space, p, zeta float64, tx []int) *fakeView {
	return &fakeView{
		space: space,
		field: pathloss.NewField(space, p, zeta, pathloss.Options{Dynamic: true}),
		tx:    tx,
	}
}

func (f *fakeView) Transmitters() []int    { return f.tx }
func (f *fakeView) Power(w, v int) float64 { return f.field.Power(w, v) }
func (f *fakeView) Dist(u, v int) float64  { return f.space.Dist(u, v) }
func (f *fakeView) Tick() int              { return f.tick }
func (f *fakeView) TotalPower(v int) float64 {
	total := 0.0
	for _, w := range f.tx {
		total += f.field.Power(w, v)
	}
	return total
}

func (f *fakeView) TransmittersWithin(v int, r float64, excluding int) int {
	n := 0
	for _, w := range f.tx {
		if w == excluding || w == v {
			continue
		}
		if f.space.Dist(w, v) <= r {
			n++
		}
	}
	return n
}

func TestSINRSingleTransmitter(t *testing.T) {
	// P=8, β=1, N=1, ζ=3 → R=2. A lone transmitter at distance 1.9 succeeds,
	// at distance 2.1 fails.
	s := NewSINR(8, 1, 1, 3, 0.1)
	if math.Abs(s.R()-2) > 1e-12 {
		t.Fatalf("R = %v", s.R())
	}
	m := metric.NewMatrix(2, 1.9)
	v := newFakeView(m, 8, 3, []int{0})
	if !s.Decodes(v, 0, 1) {
		t.Fatal("clear channel at d=1.9 must decode")
	}
	m2 := metric.NewMatrix(2, 2.1)
	v2 := newFakeView(m2, 8, 3, []int{0})
	if s.Decodes(v2, 0, 1) {
		t.Fatal("d=2.1 beyond R must not decode")
	}
}

func TestSINRInterferenceBlocks(t *testing.T) {
	// Receiver 2 sits at distance 1 from sender 0 and distance 1 from
	// interferer 1: SINR = 1/(1+N) < β → no decode. Removing the interferer
	// restores the decode.
	m := metric.NewMatrix(3, 1)
	m.SetSym(0, 1, 10)
	s := NewSINR(8, 1, 1, 3, 0.1)
	if s.Decodes(newFakeView(m, 8, 3, []int{0, 1}), 0, 2) {
		t.Fatal("equal-power interferer must block decode at β=1")
	}
	if !s.Decodes(newFakeView(m, 8, 3, []int{0}), 0, 2) {
		t.Fatal("decode must succeed without interferer")
	}
}

func TestSINRFarInterferenceAccumulates(t *testing.T) {
	// Many far transmitters, individually negligible, together block.
	// Sender at d=1.9 (signal ≈ 1.166); each interferer at d=4 contributes
	// 8/64 = 0.125; 20 of them give 2.5 > signal - noise margin.
	const nFar = 20
	m := metric.NewMatrix(nFar+2, 100)
	sender, recv := 0, 1
	m.Set(sender, recv, 1.9)
	tx := []int{sender}
	for i := 0; i < nFar; i++ {
		m.Set(2+i, recv, 4)
		tx = append(tx, 2+i)
	}
	s := NewSINR(8, 1, 1, 3, 0.1)
	if s.Decodes(newFakeView(m, 8, 3, tx), sender, recv) {
		t.Fatal("cumulative far interference must block decode")
	}
	if !s.Decodes(newFakeView(m, 8, 3, []int{sender}), sender, recv) {
		t.Fatal("decode must succeed without the far set")
	}
}

func TestSINRParams(t *testing.T) {
	s := NewSINR(8, 1, 1, 3, 0.1)
	p := s.Params()
	if p.RhoC != 0 {
		t.Fatal("SINR needs no geometric exclusion")
	}
	want := ClearIc(0.1, 1, 1, 3)
	if p.Ic != want {
		t.Fatalf("Ic = %v, want %v", p.Ic, want)
	}
	if want <= 0 || math.IsInf(want, 0) {
		t.Fatalf("Ic must be positive finite, got %v", want)
	}
}

func TestClearIcGuarantee(t *testing.T) {
	// Prop. B.1's premise: Ic < βN always, so a node with interference
	// below Ic has no transmitter within distance 2R.
	for _, eps := range []float64{0.05, 0.1, 0.2} {
		for _, zeta := range []float64{2, 3, 4} {
			ic := ClearIc(eps, 1.5, 1, zeta)
			if ic >= 1.5*1 {
				t.Fatalf("Ic=%v not below βN for eps=%v zeta=%v", ic, eps, zeta)
			}
		}
	}
}

func TestUDGCollision(t *testing.T) {
	u := NewUDG(2)
	// 0 and 1 both transmit; 2 hears both within R → collision.
	m := metric.NewMatrix(3, 1)
	m.SetSym(0, 1, 1)
	v := newFakeView(m, 1, 3, []int{0, 1})
	if u.Decodes(v, 0, 2) {
		t.Fatal("two transmitting neighbours must collide")
	}
	if !u.Decodes(newFakeView(m, 1, 3, []int{0}), 0, 2) {
		t.Fatal("single neighbour must decode")
	}
}

func TestUDGOutOfRange(t *testing.T) {
	u := NewUDG(2)
	m := metric.NewMatrix(2, 3)
	if u.Decodes(newFakeView(m, 1, 3, []int{0}), 0, 1) {
		t.Fatal("out-of-range must not decode")
	}
}

func TestUDGFarTransmitterHarmless(t *testing.T) {
	u := NewUDG(2)
	m := metric.NewMatrix(3, 1)
	m.Set(1, 2, 5) // interferer 1 is outside R of receiver 2
	if !u.Decodes(newFakeView(m, 1, 3, []int{0, 1}), 0, 2) {
		t.Fatal("graph model must ignore far transmitters")
	}
}

func TestKHopInterference(t *testing.T) {
	k := NewKHop(2, 2) // interference radius 4
	m := metric.NewMatrix(3, 1)
	m.Set(1, 2, 3) // within 4 → blocks under 2-hop, not under UDG
	if k.Decodes(newFakeView(m, 1, 3, []int{0, 1}), 0, 2) {
		t.Fatal("k-hop interference must block")
	}
	if !NewUDG(2).Decodes(newFakeView(m, 1, 3, []int{0, 1}), 0, 2) {
		t.Fatal("plain UDG must not block at d=3")
	}
}

func TestQUDGGreyZone(t *testing.T) {
	pess := NewQUDG(1, 2, nil)
	opti := NewQUDG(1, 2, func(float64) bool { return true })
	m := metric.NewMatrix(2, 1.5) // grey zone
	vw := newFakeView(m, 1, 3, []int{0})
	if pess.Decodes(vw, 0, 1) {
		t.Fatal("pessimistic grey edge must not decode")
	}
	if !opti.Decodes(vw, 0, 1) {
		t.Fatal("optimistic grey edge must decode")
	}
	// Inner zone always decodes regardless of adversary.
	mIn := metric.NewMatrix(2, 0.9)
	if !pess.Decodes(newFakeView(mIn, 1, 3, []int{0}), 0, 1) {
		t.Fatal("inner-zone edge must decode")
	}
	// Beyond outer radius never decodes.
	mOut := metric.NewMatrix(2, 2.5)
	if opti.Decodes(newFakeView(mOut, 1, 3, []int{0}), 0, 1) {
		t.Fatal("beyond outerR must not decode")
	}
}

func TestQUDGGreyInterference(t *testing.T) {
	// A grey-zone transmitter interferes even when not connected.
	pess := NewQUDG(1, 2, nil)
	m := metric.NewMatrix(3, 0.9)
	m.Set(1, 2, 1.8) // grey-zone interferer for receiver 2
	if pess.Decodes(newFakeView(m, 1, 3, []int{0, 1}), 0, 2) {
		t.Fatal("grey-zone transmitter must interfere")
	}
}

func TestProtocolModel(t *testing.T) {
	p := NewProtocol(1, 3)
	m := metric.NewMatrix(3, 0.5)
	m.Set(1, 2, 2.5) // inside interference range, outside comm range
	if p.Decodes(newFakeView(m, 1, 3, []int{0, 1}), 0, 2) {
		t.Fatal("interference-range transmitter must block")
	}
	m.Set(1, 2, 3.5)
	if !p.Decodes(newFakeView(m, 1, 3, []int{0, 1}), 0, 2) {
		t.Fatal("outside interference range must not block")
	}
	want := (1.0 + 3.0) / 1.0
	if got := p.Params().RhoC; got != want {
		t.Fatalf("RhoC = %v, want %v", got, want)
	}
}

func TestBIGModel(t *testing.T) {
	// Path 0-1-2-3-4. Interference reach 2 hops.
	g := metric.NewGraph([][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}})
	b := NewBIG(2)
	// 0 transmits to 1; 3 transmits (2 hops from 1) → blocked.
	if b.Decodes(newFakeView(g, 1, 3, []int{0, 3}), 0, 1) {
		t.Fatal("2-hop interferer must block under BIG(2)")
	}
	// 4 is 3 hops from 1 → no block.
	if !b.Decodes(newFakeView(g, 1, 3, []int{0, 4}), 0, 1) {
		t.Fatal("3-hop transmitter must not block under BIG(2)")
	}
	// Non-adjacent pairs cannot communicate.
	if b.Decodes(newFakeView(g, 1, 3, []int{0}), 0, 2) {
		t.Fatal("non-adjacent decode under BIG")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"sinr p=0":            func() { NewSINR(0, 1, 1, 3, 0.1) },
		"sinr p=NaN":          func() { NewSINR(math.NaN(), 1, 1, 3, 0.1) },
		"sinr beta<1":         func() { NewSINR(8, 0.5, 1, 3, 0.1) },
		"sinr beta=NaN":       func() { NewSINR(8, math.NaN(), 1, 3, 0.1) },
		"sinr noise=NaN":      func() { NewSINR(8, 1, math.NaN(), 3, 0.1) },
		"sinr zeta=NaN":       func() { NewSINR(8, 1, 1, math.NaN(), 0.1) },
		"rayleigh beta<1":     func() { NewRayleighSINR(8, 0.5, 1, 3, 0.1, 1) },
		"qudg inner=0":        func() { NewQUDG(0, 1, nil) },
		"qudg inner=NaN":      func() { NewQUDG(math.NaN(), 2, nil) },
		"qudg outer<inner":    func() { NewQUDG(2, 1, nil) },
		"qudg outer=NaN":      func() { NewQUDG(1, math.NaN(), nil) },
		"protocol bad":        func() { NewProtocol(2, 1) },
		"protocol comm=NaN":   func() { NewProtocol(math.NaN(), 2) },
		"protocol interf=NaN": func() { NewProtocol(1, math.NaN()) },
		"big k=0":             func() { NewBIG(0) },
		"udg r=0":             func() { NewUDG(0) },
		"udg r<0":             func() { NewUDG(-1) },
		"udg r=NaN":           func() { NewUDG(math.NaN()) },
		"ubg r=0":             func() { NewUBG(0) },
		"ubg r=NaN":           func() { NewUBG(math.NaN()) },
		"khop r=0":            func() { NewKHop(0, 2) },
		"khop r=NaN":          func() { NewKHop(math.NaN(), 2) },
		"khop k<1":            func() { NewKHop(10, 0.5) },
		"khop k=NaN":          func() { NewKHop(10, math.NaN()) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestUBGNaming(t *testing.T) {
	if NewUBG(1).Name() != "ubg" || NewUDG(1).Name() != "udg" || NewKHop(1, 2).Name() != "khop" {
		t.Fatal("model names wrong")
	}
}
