package nnir

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/ir"
	"antace/internal/onnx"
	"antace/internal/tensor"
)

func randImage(shape []int, seed uint64) *tensor.Tensor {
	rng := rand.New(rand.NewPCG(seed, 99))
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float64()*2 - 1
	}
	return t
}

func TestImportLinearMatchesGemm(t *testing.T) {
	m, err := onnx.BuildLinear(84, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Main()
	if got := f.InstrCount("nn.gemm"); got != 1 {
		t.Fatalf("gemm count %d", got)
	}
	x := randImage([]int{1, 84}, 1)
	out, err := Run(f, map[string]*tensor.Tensor{"image": x})
	if err != nil {
		t.Fatal(err)
	}
	// Direct reference.
	w, _ := m.Graph.Initializer("fc.weight").ToTensor()
	b, _ := m.Graph.Initializer("fc.bias").ToTensor()
	for k := 0; k < 10; k++ {
		want := b.Data[k]
		for j := 0; j < 84; j++ {
			want += x.Data[j] * w.At(k, j)
		}
		if math.Abs(out.Data[k]-want) > 1e-9 {
			t.Fatalf("output %d: got %g want %g", k, out.Data[k], want)
		}
	}
}

func TestImportSmallCNNShapes(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 5})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Main()
	if f.Ret.Type.Shape[1] != 5 {
		t.Fatalf("output type %s", f.Ret.Type)
	}
	out, err := Run(f, map[string]*tensor.Tensor{"image": randImage([]int{1, 1, 8, 8}, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 5 {
		t.Fatalf("output size %d", out.Size())
	}
}

func TestImportResNetRuns(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(mod.Main(), map[string]*tensor.Tensor{"image": randImage([]int{1, 3, 8, 8}, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 10 {
		t.Fatalf("output size %d", out.Size())
	}
}

func TestFuseConvBatchNormPreservesSemantics(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x := randImage([]int{1, 3, 8, 8}, 4)

	mod1, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(mod1.Main(), map[string]*tensor.Tensor{"image": x})
	if err != nil {
		t.Fatal(err)
	}

	mod2, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	bnBefore := mod2.Main().InstrCount("nn.batch_norm")
	if bnBefore == 0 {
		t.Fatal("test model has no batch norms")
	}
	pm := &ir.PassManager{}
	pm.Add(FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(mod2); err != nil {
		t.Fatal(err)
	}
	if got := mod2.Main().InstrCount("nn.batch_norm"); got != 0 {
		t.Fatalf("%d batch norms survive fusion", got)
	}
	if err := ir.VerifyFunc(mod2.Main()); err != nil {
		t.Fatal(err)
	}
	got, err := Run(mod2.Main(), map[string]*tensor.Tensor{"image": x})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("fusion changed output %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestImportRejectsUnsupported(t *testing.T) {
	b := onnx.NewBuilder("bad")
	x := b.Input("x", 1, 4)
	y := b.Node("LSTM", []string{x})
	b.Output(y, 1, 4)
	if _, err := Import(b.Model()); err == nil {
		t.Fatal("expected unsupported-operator error")
	}

	b2 := onnx.NewBuilder("batch")
	x2 := b2.Input("x", 2, 4)
	y2 := b2.Node("Relu", []string{x2})
	b2.Output(y2, 2, 4)
	if _, err := Import(b2.Model()); err == nil {
		t.Fatal("expected batch-size error")
	}
}

func TestRunMissingInput(t *testing.T) {
	m, _ := onnx.BuildLinear(8, 2, 1)
	mod, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(mod.Main(), nil); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestPassManagerTimings(t *testing.T) {
	m, _ := onnx.BuildLinear(8, 2, 1)
	mod, _ := Import(m)
	pm := &ir.PassManager{}
	pm.Add(FuseConvBatchNorm(), ir.CSE(), ir.DCE())
	if err := pm.Run(mod); err != nil {
		t.Fatal(err)
	}
	if len(pm.Timings) != 3 {
		t.Fatalf("%d timings", len(pm.Timings))
	}
	breakdown := pm.LevelBreakdown()
	if _, ok := breakdown["NN"]; !ok {
		t.Fatal("NN level missing from breakdown")
	}
}

// calibrationMaxima is the calibration run CalibrateReLUBounds replaced,
// kept as the reference: every sample through RunWithHook, which holds
// every intermediate tensor, the hook keeping each nonlinear op's
// largest |input|. It returns those maxima by body index and each
// sample's output.
func calibrationMaxima(t *testing.T, f *ir.Func, samples []*tensor.Tensor) ([]float64, []*tensor.Tensor) {
	t.Helper()
	index := map[*ir.Instr]int{}
	for i, in := range f.Body {
		index[in] = i
	}
	maxes := make([]float64, len(f.Body))
	var outs []*tensor.Tensor
	for _, x := range samples {
		out, err := RunWithHook(f, map[string]*tensor.Tensor{f.Params[0].Name: x}, func(in *ir.Instr, args []*tensor.Tensor, _ *tensor.Tensor) {
			if in.Op != OpRelu && in.Op != OpSigmoid && in.Op != OpTanh {
				return
			}
			for _, v := range args[0].Data {
				if a := math.Abs(v); a > maxes[index[in]] {
					maxes[index[in]] = a
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	return maxes, outs
}

// TestCalibrationMatchesHookRun holds the calibration's evaluator, which
// releases tensors after their last reader and reuses their buffers, to
// the hook run it replaced, bit for bit: every maximum and every sample's
// output. The aliasing model reads a ReLU through flatten and reshape
// views while its input lives on and a convolution of the same size is
// computed, adds a value to itself and sends a sum through a sigmoid; a
// buffer reused while a view of it lives, or written in place while
// another reader waits, changes a maximum here.
func TestCalibrationMatchesHookRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	uniform := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = rng.Float64()*2 - 1
		}
		return w
	}
	b := onnx.NewBuilder("aliasing")
	x := b.Input("image", 1, 2, 4, 4)
	c1 := b.Conv(x, b.Weight("c1.w", uniform(2, 2, 3, 3)), b.Weight("c1.b", uniform(2)), 1, 1)
	view := b.Reshape(b.Flatten(b.Relu(c1)), []int64{1, 2, 4, 4})
	c3 := b.Conv(x, b.Weight("c3.w", uniform(2, 2, 3, 3)), b.Weight("c3.b", uniform(2)), 1, 1)
	r2 := b.Relu(b.Add(b.Add(view, c3), c1))
	s := b.Node("Sigmoid", []string{b.Add(r2, r2)})
	c2 := b.Conv(s, b.Weight("c2.w", uniform(2, 2, 1, 1)), "", 1, 0)
	y := b.Gemm(b.Flatten(b.GlobalAveragePool(b.Relu(c2))), b.Weight("fc.w", uniform(3, 2)), b.Weight("fc.b", uniform(3)))
	b.Output(y, 1, 3)
	aliasing := b.Model()
	resnet, _ := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10, Seed: 9})
	small, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	for _, m := range []*onnx.Model{aliasing, resnet, small} {
		mod, err := Import(m)
		if err != nil {
			t.Fatal(err)
		}
		f := mod.Main()
		var samples []*tensor.Tensor
		for s := uint64(0); s < 3; s++ {
			samples = append(samples, randImage(f.Params[0].Type.Shape, s))
		}
		want, wantOuts := calibrationMaxima(t, f, samples)
		c := newCalibration(f)
		nonzero := 0
		for s, x := range samples {
			if err := c.run(x); err != nil {
				t.Fatal(err)
			}
			got := c.env.Get(f.Ret)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(wantOuts[s].Data[i]) {
					t.Fatalf("%s sample %d: output %d is %v, the hook run %v", m.Graph.Name, s, i, got.Data[i], wantOuts[s].Data[i])
				}
			}
		}
		for i := range want {
			if math.Float64bits(c.maxes[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: instr %d (%s) max %v, the hook run %v", m.Graph.Name, i, f.Body[i].Op, c.maxes[i], want[i])
			}
			if want[i] != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Fatalf("%s: no nonlinear op calibrated", m.Graph.Name)
		}
	}
}
