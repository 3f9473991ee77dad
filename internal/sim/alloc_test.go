package sim

import (
	"reflect"
	"strconv"
	"testing"

	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// TestStepZeroAllocs pins the uninstrumented hot path at zero steady-state
// heap allocations per slot: the per-slot transmitted map, the per-slot view
// slice, and the per-node Observation value have all been replaced by scratch
// state on Sim. The first Step warms the lazily sized buffers (AllocsPerRun
// performs a warm-up call of its own on top of the explicit one here), so any
// non-zero reading is a regression on the steady state.
func TestStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Sim
	}{
		{"sinr", func() *Sim {
			pts := workload.UniformDisc(512, workload.SideForDegree(512, 16, 9), 1)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
				P:     1500, Zeta: 3, Eps: 0.1,
				Options: Options{
					Seed:       1,
					Primitives: CD | ACK,
				},
			}, func(int) Protocol { return fixedProb(1.0 / 64) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"sinr-uncached", func() *Sim {
			// Dynamic disables the path-loss cache, so every all-receiver
			// sum computes power rows into the preallocated row buffer.
			pts := workload.UniformDisc(512, workload.SideForDegree(512, 16, 9), 1)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
				P:     1500, Zeta: 3, Eps: 0.1,
				Options: Options{
					Seed:       1,
					Primitives: CD | ACK,
					Dynamic:    true,
				},
			}, func(int) Protocol { return fixedProb(1.0 / 64) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"udg-indexed", func() *Sim {
			pts := workload.UniformDisc(512, workload.SideForDegree(512, 16, 10), 2)
			s, err := New(Config{
				Space: metric.NewEuclidean(pts),
				Model: model.NewUDG(10),
				P:     1500, Zeta: 3, Eps: 0.1,
				Options: Options{Seed: 2},
			}, func(int) Protocol { return fixedProb(1.0 / 64) })
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			// Warm the lazily sized scratch: per-listener reception buffers
			// only reach their steady-state capacity once enough distinct
			// transmitter sets have been realised.
			s.Run(500)
			if avg := testing.AllocsPerRun(50, func() { s.Step() }); avg != 0 {
				t.Fatalf("Step allocates %.2f times per slot in steady state, want 0", avg)
			}
		})
	}
}

// TestSlotValuesAreRegisterSized pins the values Step exchanges with every
// node in every slot at sizes the Go compiler keeps in registers. Its SSA
// backend (cmd/compile/internal/ssa.CanSSA) registerizes a struct only if it
// is at most 4 pointer words, 32 bytes on 64-bit targets, with at most 4
// fields, each field obeying the same limits (and arrays at most 1 long).
// Protocol.Act and Injector.Seized return an Action for every acting node;
// at 48 bytes each result was spilled to the stack a field at a time and
// read back by 16-byte loads straddling those stores. The CPU cannot forward
// such a load from the pending stores, so it stalled: in a traced
// sparse-strip benchmark run on a 2-vCPU VM, 1.96 s of 11.22 s of samples
// sat on that one load, and the Act call line took 24.5% of the samples
// against 4.4% inside the Act bodies.
func TestSlotValuesAreRegisterSized(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the limits are stated for 64-bit targets")
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Action](), reflect.TypeFor[Message](), reflect.TypeFor[Recv](),
	} {
		checkRegisterSized(t, typ.Name(), typ)
	}
}

func checkRegisterSized(t *testing.T, name string, typ reflect.Type) {
	t.Helper()
	if typ.Size() > 32 {
		t.Errorf("%s is %d bytes; values above 32 bytes leave registers", name, typ.Size())
	}
	switch typ.Kind() {
	case reflect.Array:
		if typ.Len() > 1 {
			t.Errorf("%s is an array of %d; arrays longer than 1 leave registers", name, typ.Len())
		}
	case reflect.Struct:
		if typ.NumField() > 4 {
			t.Errorf("%s has %d fields; structs with more than 4 leave registers", name, typ.NumField())
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			checkRegisterSized(t, name+"."+f.Name, f.Type)
		}
	}
}
