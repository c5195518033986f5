package sihe

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/poly"
	"antace/internal/tensor"
	"antace/internal/vecir"
)

func lowerModel(t *testing.T, m *onnx.Model, opts Options) (*ir.Module, *vecir.Result, *ir.Module) {
	t.Helper()
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := &ir.PassManager{}
	pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(nn); err != nil {
		t.Fatal(err)
	}
	vres, err := vecir.Lower(nn, vecir.Options{DefaultReLUBound: 10})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Lower(vres.Module, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nn, vres, sm
}

func TestLowerLinearNoEncodeLoss(t *testing.T) {
	m, err := onnx.BuildLinear(32, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	nn, vres, sm := lowerModel(t, m, Options{})
	// Linear model: SIHE must match NN reference almost exactly (no
	// nonlinear approximations involved).
	rng := rand.New(rand.NewPCG(1, 1))
	x := tensor.New(1, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*2 - 1
	}
	want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{"image": x})
	if err != nil {
		t.Fatal(err)
	}
	packed, _ := vres.InLayout.Pack(x.Data)
	outVec, err := Run(sm.Main(), packed)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := vres.OutLayout.Unpack(outVec)
	for i := range want.Data {
		if math.Abs(got[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("output %d: %g vs %g", i, got[i], want.Data[i])
		}
	}
	// Every constant touching a cipher must pass through sihe.encode.
	if sm.Main().InstrCount(OpEncode) == 0 {
		t.Fatal("no encode ops inserted")
	}
}

func TestLowerCNNReLUApproximation(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	nn, vres, sm := lowerModel(t, m, Options{ReLUAlpha: 9, ReLUEps: 1.0 / 64})
	if sm.Main().InstrCount(OpPoly) == 0 {
		t.Fatal("ReLU was not expanded into polynomial stages")
	}
	rng := rand.New(rand.NewPCG(2, 2))
	x := tensor.New(1, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*2 - 1
	}
	want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{"image": x})
	if err != nil {
		t.Fatal(err)
	}
	packed, _ := vres.InLayout.Pack(x.Data)
	outVec, err := Run(sm.Main(), packed)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := vres.OutLayout.Unpack(outVec)
	for i := range want.Data {
		if math.Abs(got[i]-want.Data[i]) > 0.05 {
			t.Fatalf("output %d: sihe %g vs nn %g (relu approximation too loose)", i, got[i], want.Data[i])
		}
	}
}

func TestReLUStagesApproximateReLU(t *testing.T) {
	bound := 10.0
	stages, err := ReLUStages(bound, Options{ReLUAlpha: 10, ReLUEps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	evalStages := func(x float64) float64 {
		v := x / bound
		for _, coeffs := range stages {
			acc := 0.0
			for j := len(coeffs) - 1; j >= 0; j-- {
				acc = acc*v + coeffs[j]
			}
			v = acc
		}
		return x * v
	}
	for x := -bound; x <= bound; x += 0.37 {
		want := math.Max(0, x)
		got := evalStages(x)
		tol := 0.02 * bound
		if math.Abs(x) > bound/16 {
			tol = 0.01
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("relu(%g): got %g want %g", x, got, want)
		}
	}
	if d := ReLUDepth(stages); d < 4 || d > 50 {
		t.Fatalf("relu depth %d implausible", d)
	}
}

// TestStageDepth: a stage costs the depth of its evaluation plan,
// ceil(log2(deg+1)), one more where a Chebyshev interval needs the affine
// input map.
func TestStageDepth(t *testing.T) {
	cases := map[int]int{1: 1, 3: 2, 7: 3, 15: 4, 30: 5}
	for deg, want := range cases {
		coeffs := make([]float64, deg+1)
		coeffs[deg] = 1
		if got := StageDepth(&poly.Polynomial{Coeffs: coeffs}); got != want {
			t.Errorf("StageDepth(deg %d) = %d, want %d", deg, got, want)
		}
		if got := StageDepth(&poly.Polynomial{Coeffs: coeffs, Basis: poly.Chebyshev, A: 0, B: 4}); got != want+1 {
			t.Errorf("StageDepth(deg %d on [0,4]) = %d, want %d", deg, got, want+1)
		}
	}
}
