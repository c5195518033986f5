package main

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/tensor"
)

func near(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
}

func TestRefOperatorsByHand(t *testing.T) {
	// 1×1×3×3 input, one 2×2 kernel of ones, stride 1, pad 1, bias 1:
	// each output is the sum of the window's in-range cells plus one.
	x := tensor.FromData([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.FromData([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	out, err := refConv(x, w, tensor.FromData([]float64{1}, 1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "conv", out.Data, []float64{
		2, 4, 6, 4,
		6, 13, 17, 10,
		12, 25, 29, 16,
		8, 16, 18, 10}, 0)

	strided, err := refConv(x, w, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "strided conv", strided.Data, []float64{12}, 0)

	// y = x·Wᵀ + b with W 2×3.
	g, err := refGemm(tensor.FromData([]float64{1, 2, 3}, 1, 3),
		tensor.FromData([]float64{1, 0, -1, 2, 2, 2}, 2, 3), tensor.FromData([]float64{10, 20}, 2), true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "gemm", g.Data, []float64{8, 32}, 0)

	bn, err := refBatchNorm(tensor.FromData([]float64{1, 3, 10, 20}, 1, 2, 1, 2),
		tensor.FromData([]float64{2, 1}, 2), tensor.FromData([]float64{0, 5}, 2),
		tensor.FromData([]float64{1, 10}, 2), tensor.FromData([]float64{4, 25}, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "batchnorm", bn.Data, []float64{0, 2, 5, 7}, 1e-12)

	pool, err := refAvgPool(tensor.FromData([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16}, 1, 1, 4, 4), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "avgpool", pool.Data, []float64{3.5, 5.5, 11.5, 13.5}, 0)
}

// The compiler's own cleartext executor is a second opinion here, not
// the benchmark's reference: the two must agree on the models the
// workloads run.
func TestRefAgreesWithNNIR(t *testing.T) {
	linear, err := onnx.BuildLinear(64, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resnet, err := resnet8Spec.build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for name, m := range map[string]*onnx.Model{"linear": linear, "small_cnn": cnn, "resnet8": resnet} {
		shape := make([]int, len(m.Graph.Inputs[0].Shape))
		for i, d := range m.Graph.Inputs[0].Shape {
			shape[i] = int(d)
		}
		in := tensor.New(shape...)
		for i := range in.Data {
			in.Data[i] = rng.Float64()*2 - 1
		}
		got, err := refRun(m, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod, err := nnir.Import(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := mod.Main()
		want, err := nnir.Run(f, map[string]*tensor.Tensor{f.Params[0].Name: in})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		near(t, name, got.Data, want.Data, 1e-9)
	}
}

func TestRefRejectsUnknownOperator(t *testing.T) {
	b := onnx.NewBuilder("odd")
	x := b.Input("x", 1, 4)
	b.Output(b.Node("Softmax", []string{x}), 1, 4)
	if _, err := refRun(b.Model(), tensor.New(1, 4)); err == nil {
		t.Error("unsupported operator accepted")
	}
}
