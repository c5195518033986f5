package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vecir"
)

// everyOpModel is conv → batch_norm → relu → conv → residual add → avg
// pool → global pool → gemm → tanh: every NN op the lowering supports, in
// one graph.
func everyOpModel(t *testing.T) *onnx.Model {
	t.Helper()
	rng := rand.New(rand.NewPCG(31, 37))
	weight := func(scale float64, shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * scale
		}
		return w
	}
	ones := tensor.New(2)
	for i := range ones.Data {
		ones.Data[i] = 1 + 0.1*float64(i)
	}
	b := onnx.NewBuilder("every_op")
	x := b.Input("image", 1, 1, 8, 8)
	cur := b.Conv(x, b.Weight("c1.w", weight(0.4, 2, 1, 3, 3)), b.Weight("c1.b", weight(0.1, 2)), 1, 1)
	cur = b.BatchNorm(cur, b.Weight("bn.gamma", ones), b.Weight("bn.beta", weight(0.1, 2)),
		b.Weight("bn.mean", weight(0.1, 2)), b.Weight("bn.var", ones), 1e-5)
	act := b.Relu(cur)
	cur = b.Conv(act, b.Weight("c2.w", weight(0.3, 2, 2, 3, 3)), b.Weight("c2.b", weight(0.1, 2)), 1, 1)
	cur = b.Flatten(b.GlobalAveragePool(b.AveragePool(b.Add(cur, act), 2, 2)))
	cur = b.Gemm(cur, b.Weight("fc.w", weight(1, 3, 2)), b.Weight("fc.b", tensor.New(3)))
	b.Output(b.Node("Tanh", []string{cur}), 1, 3)
	m := b.Model()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// orderChecker returns an observer asserting it is called with f.Body's
// instructions, each once and in order, and a func reporting how many
// calls it saw.
func orderChecker[T any](t *testing.T, level string, f *ir.Func) (func(*ir.Instr, []T, T), func()) {
	seen := 0
	observe := func(in *ir.Instr, args []T, _ T) {
		if seen >= len(f.Body) || in != f.Body[seen] {
			t.Errorf("%s: observer call %d is not body instruction %d (%s)", level, seen, seen, in.Op)
		}
		if len(args) != len(in.Args) {
			t.Errorf("%s: instr %d (%s) observed with %d args, has %d", level, seen, in.Op, len(args), len(in.Args))
		}
		seen++
	}
	return observe, func() {
		if seen != len(f.Body) {
			t.Errorf("%s: observer fired %d times for %d instructions", level, seen, len(f.Body))
		}
	}
}

// TestCrossLevelAgreement runs one input through the reference evaluator
// at every IR level of one compiled model: the NN graph as imported
// (batch_norm still present) and as fused, VECTOR (exact nonlinearities),
// SIHE and CKKS (polynomial approximations). Each level must agree with
// the one above within that boundary's tolerance, and the evaluator's
// observer must see every instruction once, in order.
func TestCrossLevelAgreement(t *testing.T) {
	m := everyOpModel(t)
	raw, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	ops := raw.Main().OpHistogram()
	for _, op := range []string{nnir.OpConv, nnir.OpBatchNorm, nnir.OpRelu, nnir.OpAdd,
		nnir.OpAvgPool, nnir.OpGlobalPool, nnir.OpGemm, nnir.OpTanh} {
		if ops[op] == 0 {
			t.Fatalf("model has no %s", op)
		}
	}
	c, err := Compile(m, Config{
		SIHE: sihe.Options{ReLUAlpha: 9, ReLUEps: 1.0 / 64},
		CKKS: ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	img := randInput([]int{1, 1, 8, 8}, 7)

	runNN := func(level string, f *ir.Func) []float64 {
		observe, done := orderChecker[*tensor.Tensor](t, level, f)
		out, err := nnir.RunWithHook(f, map[string]*tensor.Tensor{f.Params[0].Name: img}, observe)
		if err != nil {
			t.Fatal(err)
		}
		done()
		return out.Data
	}
	packed, err := c.Vec.InLayout.Pack(img.Data)
	if err != nil {
		t.Fatal(err)
	}
	runSlots := func(level string, f *ir.Func, kernels map[string]ir.SlotKernel) []float64 {
		observe, done := orderChecker[[]float64](t, level, f)
		vec, err := ir.RunSlots(f, packed, kernels, observe)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		done()
		out, err := c.Vec.OutLayout.Unpack(vec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	levels := []struct {
		name string
		out  []float64
		tol  float64 // against the level above
	}{
		{"nn (imported)", runNN("nn (imported)", raw.Main()), 0},
		{"nn (fused)", runNN("nn (fused)", c.NN.Main()), 1e-9},
		{"vector", runSlots("vector", c.Vec.Module.Main(), vecir.Kernels), 1e-9},
		{"sihe", runSlots("sihe", c.SIHE.Main(), sihe.Kernels), 0.05},
		{"ckks", runSlots("ckks", c.CKKS.Module.Main(), ckksir.Kernels), 1e-9},
	}
	for l := 1; l < len(levels); l++ {
		above, cur := levels[l-1], levels[l]
		if len(cur.out) != len(above.out) {
			t.Fatalf("%s has %d outputs, %s has %d", cur.name, len(cur.out), above.name, len(above.out))
		}
		for i := range cur.out {
			if d := math.Abs(cur.out[i] - above.out[i]); d > cur.tol {
				t.Errorf("output %d: %s %g vs %s %g (|Δ| %.3g > %g)",
					i, cur.name, cur.out[i], above.name, above.out[i], d, cur.tol)
			}
		}
	}
}
