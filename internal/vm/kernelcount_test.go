package vm

import (
	"maps"
	"testing"
	"time"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/poly"
	"antace/internal/ring"
)

// kernelCalls counts the fused-kernel calls of an expansion, by kernel.
func kernelCalls(expand func(emit func(kswork.Prim))) map[string]uint64 {
	calls := map[string]uint64{}
	expand(func(p kswork.Prim) {
		if _, kernel := obs.FusedConstituents[p.Op]; kernel {
			calls[p.Op] += uint64(p.Count)
		}
	})
	return calls
}

// observe runs fn with a kernel observer on ev and returns the kernel
// events it saw, by kernel.
func observe(t *testing.T, ev *ckks.Evaluator, fn func() error) map[string]uint64 {
	t.Helper()
	events := map[string]uint64{}
	ev.KernelObserver = func(op string, _ time.Duration) { events[op]++ }
	defer func() { ev.KernelObserver = nil }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestKernelCallsMatchExpansion holds the expansion every price, POLY
// primitive and stage-rule unit comes from (kswork.Geometry.Expand) to
// the runtime: the KernelObserver's events equal the expansion's fused-
// kernel calls exactly, for each key-switching instruction alone, one
// whole bootstrap, and whole inferences through the VM, read from the
// run profile's kernel table against the program walk (ckksir.Walk).
// Kernel calls do not depend on the worker count; make race runs this at
// ACE_WORKERS 8 and 2.
func TestKernelCallsMatchExpansion(t *testing.T) {
	tiny := tinyBootstrapping(t)
	g := tiny.Literal.Geometry()

	t.Run("opcodes", func(t *testing.T) {
		params, err := ckks.NewParameters(tiny.Literal)
		if err != nil {
			t.Fatal(err)
		}
		kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(3))
		sk := kg.GenSecretKey()
		ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{
			Rlk:    kg.GenRelinearizationKey(sk),
			Galois: kg.GenGaloisKeys([]int{1, 2, 4}, false, sk),
		})
		enc := ckks.NewEncoder(params)
		values := make([]complex128, params.Slots())
		for i := range values {
			values[i] = complex(float64(i%7)/8-0.4, 0)
		}
		pt, err := enc.Encode(values, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := ckks.NewEncryptorFromSecretKey(params, sk).Encrypt(pt)
		level := ct.Level()

		// linear runs one baby-step/giant-step kernel over the given
		// babies and giants, its masks at the input's level.
		linear := func(babies, giants []int) (func() error, kswork.Split) {
			terms := make([]ckks.BSGSTerm, len(babies))
			for i, b := range babies {
				encode := enc.Encode
				if b != 0 {
					encode = enc.EncodeQP
				}
				mask, err := encode(values, level, params.DefaultScale())
				if err != nil {
					t.Fatal(err)
				}
				terms[i] = ckks.BSGSTerm{Baby: b, Giant: giants[i], Mask: mask}
			}
			split := ckksir.LinearSplit(&ir.Instr{Attrs: map[string]any{"b": babies, "g": giants}})
			return func() error { _, err := ev.EvaluateBSGS(ct, terms); return err }, split
		}
		withZero, zeroSplit := linear([]int{0, 1, 2, 0, 1, 2}, []int{0, 0, 0, 4, 4, 4})
		noZero, noZeroSplit := linear([]int{1, 2, 1, 2}, []int{0, 0, 4, 4})
		onlyZero, onlyZeroSplit := linear([]int{0, 0}, []int{0, 4})
		prod, err := ev.Mul(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		cubic := poly.NewPlan(poly.NewMonomial(0, 0.5, 0, -0.25))
		cheb := poly.NewPlan(poly.ChebyshevInterpolate(func(x float64) float64 { return x * x * x }, -1, 1, 5))

		for _, c := range []struct {
			name  string
			op    string
			split kswork.Split
			plan  *poly.Plan
			run   func() error
		}{
			{"rotate", ckksir.OpRotate, kswork.Split{}, nil, func() error { _, err := ev.Rotate(ct, 1); return err }},
			{"relin", ckksir.OpRelin, kswork.Split{}, nil, func() error { _, err := ev.Relinearize(prod); return err }},
			{"linear-with-b0", ckksir.OpLinear, zeroSplit, nil, withZero},
			{"linear-without-b0", ckksir.OpLinear, noZeroSplit, nil, noZero},
			{"linear-only-b0", ckksir.OpLinear, onlyZeroSplit, nil, onlyZero},
			{"poly-monomial", ckksir.OpPoly, kswork.Split{}, cubic, func() error { _, err := ev.EvaluatePolynomial(ct, cubic, 0); return err }},
			{"poly-chebyshev", ckksir.OpPoly, kswork.Split{}, cheb, func() error { _, err := ev.EvaluatePolynomial(ct, cheb, 0); return err }},
		} {
			want := kernelCalls(func(emit func(kswork.Prim)) { g.Expand(c.op, level, c.split, c.plan, emit) })
			if got := observe(t, ev, c.run); len(want) == 0 || !maps.Equal(got, want) {
				t.Errorf("%s at level %d: kernel events %v, expansion %v", c.name, level, got, want)
			}
		}
	})

	t.Run("bootstrap", func(t *testing.T) {
		m, client, err := New(tiny, vecLen(tiny), ring.SeedFromInt(5))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := client.Encrypt(randomInput(vecLen(tiny), 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Eval.DropLevel(ct, ct.Level()-m.Boot.InputLevel()); err != nil {
			t.Fatal(err)
		}
		target := m.Boot.MaxOutputLevel()
		want := kernelCalls(func(emit func(kswork.Prim)) {
			for _, op := range bootstrap.Schedule(*tiny.Boot, g.LogN, target) {
				op.Expand(g, emit)
			}
		})
		got := observe(t, m.Eval, func() error { _, err := m.Boot.Bootstrap(m.Eval, ct, target); return err })
		if !maps.Equal(got, want) {
			t.Errorf("bootstrap to level %d: kernel events %v, expansion of its schedule %v", target, got, want)
		}
	})

	programs := []struct {
		name  string
		slow  bool
		build func(t *testing.T) *ckksir.Result
	}{
		{"tiny-bootstrapping", false, func(*testing.T) *ckksir.Result { return tiny }},
		{"gemv", false, func(t *testing.T) *ckksir.Result {
			m, err := onnx.BuildLinear(512, 10, 42)
			return compile(t, m, err, testConfig(ckksir.BootstrapAuto))
		}},
		{"resnet8", true, func(t *testing.T) *ckksir.Result {
			m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
			cfg := testConfig(ckksir.BootstrapAuto)
			cfg.CKKS.Boot = bootstrap.Parameters{K: 24, DoubleAngle: 4}
			return compile(t, m, err, cfg)
		}},
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			if p.slow && testing.Short() {
				t.Skip("six bootstraps per run")
			}
			res := p.build(t)
			m, client, err := New(res, vecLen(res), ring.SeedFromInt(7))
			if err != nil {
				t.Fatal(err)
			}
			ct, err := client.Encrypt(randomInput(vecLen(res), 9))
			if err != nil {
				t.Fatal(err)
			}
			m.Prof = obs.NewRunProfile()
			if _, err := m.Run(res.Module, ct); err != nil {
				t.Fatal(err)
			}
			got := map[string]uint64{}
			for _, st := range m.Prof.Kernels() {
				got[st.Op] = st.Count
			}
			want := kernelCalls(func(emit func(kswork.Prim)) {
				if err := ckksir.Walk(res, res.Literal.Geometry(), func(_ *ir.Instr, p kswork.Prim) { emit(p) }); err != nil {
					t.Fatal(err)
				}
			})
			if len(want) == 0 || !maps.Equal(got, want) {
				t.Errorf("profiled kernel calls %v, program walk %v", got, want)
			}
			t.Logf("kernel calls %v", got)
		})
	}
}
