package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vm"
)

// tinyReluModel builds conv3x3 -> relu -> gap -> fc on a small input:
// the smallest model exercising every lowering path including the
// nonlinear approximation.
func tinyReluModel(t *testing.T, inputSize, channels, classes int) *onnx.Model {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 13))
	b := onnx.NewBuilder("tiny_relu")
	x := b.Input("image", 1, 1, int64(inputSize), int64(inputSize))
	w1 := tensor.New(channels, 1, 3, 3)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.4
	}
	bias1 := tensor.New(channels)
	for i := range bias1.Data {
		bias1.Data[i] = rng.NormFloat64() * 0.1
	}
	cur := b.Conv(x, b.Weight("conv.weight", w1), b.Weight("conv.bias", bias1), 1, 1)
	cur = b.Relu(cur)
	cur = b.GlobalAveragePool(cur)
	cur = b.Flatten(cur)
	wf := tensor.New(classes, channels)
	for i := range wf.Data {
		wf.Data[i] = rng.NormFloat64()
	}
	bf := tensor.New(classes)
	cur = b.Gemm(cur, b.Weight("fc.weight", wf), b.Weight("fc.bias", bf))
	b.Output(cur, 1, int64(classes))
	m := b.Model()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func randInput(shape []int, seed uint64) *tensor.Tensor {
	rng := rand.New(rand.NewPCG(seed, 23))
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*2 - 1
	}
	return x
}

func TestCompilePipelineStages(t *testing.T) {
	m := tinyReluModel(t, 4, 2, 3)
	c, err := Compile(m, Config{
		CKKS: ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.NN == nil || c.Vec == nil || c.SIHE == nil || c.CKKS == nil {
		t.Fatal("missing pipeline stage output")
	}
	if pm, err := c.LowerPoly(); err != nil || len(pm.Main().Body) == 0 {
		t.Fatalf("POLY lowering: %v", err)
	}
	levels := c.LevelBreakdown()
	for _, l := range []string{"NN", "VECTOR", "SIHE", "CKKS", "POLY"} {
		if _, ok := levels[l]; !ok {
			t.Fatalf("no timing recorded for level %s", l)
		}
	}
	// Simulator must track the plaintext reference closely.
	x := randInput([]int{1, 1, 4, 4}, 1)
	want, err := c.RunPlain(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunSim(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 0.15 {
			t.Fatalf("sim output %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestEndToEndEncryptedInference(t *testing.T) {
	m := tinyReluModel(t, 4, 2, 3)
	c, err := Compile(m, Config{
		SIHE: siheOptsFast(),
		CKKS: ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true, LogScale: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(c.Summary())

	machine, client, err := vm.New(c.CKKS, c.VectorLen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{1, 1, 4, 4}, 2)
	want, err := c.RunSim(x) // encrypted result should match the simulator
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.RunPlain(x)
	if err != nil {
		t.Fatal(err)
	}

	packed, err := c.Vec.InLayout.Pack(x.Data)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(packed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(c.CKKS.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	vec := client.Decrypt(out)
	got, err := c.Vec.OutLayout.Unpack(vec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got[i]-want.Data[i]) > 1e-2 {
			t.Fatalf("encrypted output %d: %g, simulator %g, plaintext %g", i, got[i], want.Data[i], plain.Data[i])
		}
		if math.Abs(got[i]-plain.Data[i]) > 0.2 {
			t.Fatalf("encrypted output %d drifted from plaintext: %g vs %g", i, got[i], plain.Data[i])
		}
	}
}

func TestEndToEndEncryptedWithBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap end-to-end test is slow")
	}
	m := tinyReluModel(t, 4, 2, 3)
	c, err := Compile(m, Config{
		SIHE: siheOptsFast(),
		CKKS: ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true, LogScale: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.CKKS.Bootstraps == 0 {
		t.Fatal("expected at least one bootstrap")
	}
	t.Log(c.Summary())

	machine, client, err := vm.New(c.CKKS, c.VectorLen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{1, 1, 4, 4}, 3)
	want, err := c.RunSim(x)
	if err != nil {
		t.Fatal(err)
	}
	packed, _ := c.Vec.InLayout.Pack(x.Data)
	ct, err := client.Encrypt(packed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(c.CKKS.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Vec.OutLayout.Unpack(client.Decrypt(out))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got[i]-want.Data[i]) > 5e-2 {
			t.Fatalf("encrypted output %d: %g vs simulator %g", i, got[i], want.Data[i])
		}
	}
}

// siheOptsFast keeps the sign composite shallow for fast tests.
func siheOptsFast() sihe.Options {
	return sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125}
}

// TestEndToEndSigmoidMLP exercises the Chebyshev nonlinearity path: a
// small gemm->sigmoid->gemm MLP runs fully encrypted.
func TestEndToEndSigmoidMLP(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	b := onnx.NewBuilder("mlp_sigmoid")
	x := b.Input("image", 1, 8)
	w1 := tensor.New(6, 8)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.5
	}
	b1 := tensor.New(6)
	h := b.Gemm(x, b.Weight("w1", w1), b.Weight("b1", b1))
	h = b.Node("Sigmoid", []string{h})
	w2 := tensor.New(3, 6)
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.5
	}
	out := b.Gemm(h, b.Weight("w2", w2), b.Weight("b2", tensor.New(3)))
	b.Output(out, 1, 3)
	m := b.Model()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	c, err := Compile(m, Config{
		SIHE: sihe.Options{SmoothDegree: 15},
		CKKS: ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true, LogScale: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	machine, client, err := vm.New(c.CKKS, c.VectorLen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	img := randInput([]int{1, 8}, 5)
	want, err := c.RunPlain(img)
	if err != nil {
		t.Fatal(err)
	}
	packed, _ := c.Vec.InLayout.Pack(img.Data)
	ct, err := client.Encrypt(packed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(c.CKKS.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Vec.OutLayout.Unpack(client.Decrypt(res))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got[i]-want.Data[i]) > 2e-2 {
			t.Fatalf("output %d: encrypted %g vs plaintext %g", i, got[i], want.Data[i])
		}
	}
}
