package vecir

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/tensor"
)

func TestLayoutSlotBijective(t *testing.T) {
	for _, lay := range []*Layout{
		{C: 4, H: 8, W: 8, H0: 8, W0: 8, Sy: 1, Sx: 1, L: 256, Gain: 1},
		{C: 8, H: 4, W: 4, H0: 8, W0: 8, Sy: 2, Sx: 2, L: 256, Gain: 1},
		{C: 16, H: 2, W: 2, H0: 8, W0: 8, Sy: 4, Sx: 4, L: 256, Gain: 1},
	} {
		seen := map[int]bool{}
		for c := 0; c < lay.C; c++ {
			for y := 0; y < lay.H; y++ {
				for x := 0; x < lay.W; x++ {
					s := lay.Slot(c, y, x)
					if s < 0 || s >= lay.L {
						t.Fatalf("%s: slot %d out of range", lay, s)
					}
					if seen[s] {
						t.Fatalf("%s: slot %d reused", lay, s)
					}
					seen[s] = true
				}
			}
		}
	}
}

func TestLayoutPackUnpackRoundTrip(t *testing.T) {
	lay := &Layout{C: 8, H: 4, W: 4, H0: 8, W0: 8, Sy: 2, Sx: 2, L: 512, Gain: 2}
	data := make([]float64, 8*4*4)
	for i := range data {
		data[i] = float64(i) + 1
	}
	v, err := lay.Pack(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lay.Unpack(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(back[i]-data[i]) > 1e-12 {
			t.Fatalf("pack/unpack mismatch at %d", i)
		}
	}
	if _, err := lay.Pack(data[:5]); err == nil {
		t.Fatal("expected size error")
	}
}

func TestDownsampleValidation(t *testing.T) {
	lay, err := NewInputLayout(3, 8, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInputLayout(3, 7, 8, 1024); err == nil {
		t.Fatal("expected power-of-two error")
	}
	d, err := lay.Downsample(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if d.H != 4 || d.Sy != 2 || d.Blocks() != 3 {
		t.Fatalf("downsample gave %s", d)
	}
	if _, err := lay.Downsample(3, 3); err == nil {
		t.Fatal("expected non-dividing stride error")
	}
}

// lowerAndCompare compiles a model to VECTOR IR and checks the vector
// executor against the NN reference on random inputs.
func lowerAndCompare(t *testing.T, m *onnx.Model, opts Options, seeds []uint64, tol float64) (*Result, *ir.Module) {
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
	res, err := Lower(nn, opts)
	if err != nil {
		t.Fatal(err)
	}
	inShape := nn.Main().Params[0].Type.Shape
	for _, seed := range seeds {
		rng := rand.New(rand.NewPCG(seed, 17))
		x := tensor.New(inShape...)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{nn.Main().Params[0].Name: x})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := res.InLayout.Pack(x.Data)
		if err != nil {
			t.Fatal(err)
		}
		outVec, err := Run(res.Module.Main(), packed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.OutLayout.Unpack(outVec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Abs(got[i]-want.Data[i]) > tol {
				t.Fatalf("seed %d output %d: vec %g vs nn %g", seed, i, got[i], want.Data[i])
			}
		}
	}
	return res, nn
}

func TestLowerLinear(t *testing.T) {
	m, err := onnx.BuildLinear(84, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := lowerAndCompare(t, m, Options{}, []uint64{1, 2}, 1e-9)
	if res.InLayout.C != 84 || res.OutLayout.C != 10 {
		t.Fatalf("layouts: in %s out %s", res.InLayout, res.OutLayout)
	}
	// Dense FC output: class k at slot k.
	if res.OutLayout.Slot(3, 0, 0) != 3 {
		t.Fatal("FC output not densely packed")
	}
}

func TestLowerSmallCNN(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	lowerAndCompare(t, m, Options{}, []uint64{3, 4}, 1e-9)
}

func TestLowerResNetMini(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	lowerAndCompare(t, m, Options{}, []uint64{5}, 1e-9)
}

func TestLowerResNetMiniNaive(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	resShared, _ := lowerAndCompare(t, m, Options{}, []uint64{6}, 1e-9)
	resNaive, _ := lowerAndCompare(t, m, Options{Conv: ConvNaive}, []uint64{6}, 1e-9)
	shared := Analyze(resShared.Module.Main())
	naive := Analyze(resNaive.Module.Main())
	if shared.Rotations >= naive.Rotations {
		t.Fatalf("rotation sharing did not help: shared %d vs naive %d", shared.Rotations, naive.Rotations)
	}
	if shared.DistinctRotations >= naive.DistinctRotations {
		t.Fatalf("key analysis: shared %d vs naive %d distinct rotations", shared.DistinctRotations, naive.DistinctRotations)
	}
}

// TestLowerConvModes: every enumerable BSGS split must compute the same
// function; the swapped split must actually change the rotation
// structure (otherwise the plan enumerator is choosing between clones).
func TestLowerConvModes(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ConvMode]Stats{}
	rolls := map[ConvMode][]int{}
	for _, mode := range ConvModes() {
		res, _ := lowerAndCompare(t, m, Options{Conv: mode}, []uint64{9}, 1e-9)
		counts[mode] = Analyze(res.Module.Main())
		for _, in := range res.Module.Main().Body {
			if in.Op == OpRoll {
				rolls[mode] = append(rolls[mode], in.AttrInt("k", 0))
			}
		}
	}
	// The swap transposes the (rv, sj) table, so aggregate counts tie —
	// the *sequence* of roll amounts (which offsets are shared babies vs
	// per-diagonal giants) is what must change.
	same := len(rolls[ConvChannelGiant]) == len(rolls[ConvSpatialGiant])
	if same {
		for i, k := range rolls[ConvChannelGiant] {
			if rolls[ConvSpatialGiant][i] != k {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("spatial-giant split produced the identical roll schedule to channel-giant")
	}
	if counts[ConvNaive].Rotations <= counts[ConvChannelGiant].Rotations {
		t.Fatalf("naive (%d rotations) not above channel-giant (%d)",
			counts[ConvNaive].Rotations, counts[ConvChannelGiant].Rotations)
	}
}

func TestVectorLenAuto(t *testing.T) {
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := &ir.PassManager{}
	pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(nn); err != nil {
		t.Fatal(err)
	}
	l, err := VectorLen(nn.Main())
	if err != nil {
		t.Fatal(err)
	}
	if l&(l-1) != 0 || l < 4*64 {
		t.Fatalf("vector length %d implausible", l)
	}
}

func TestAnalyzeCounts(t *testing.T) {
	m, _ := onnx.BuildLinear(16, 4, 9)
	nn, _ := nnir.Import(m)
	res, err := Lower(nn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(res.Module.Main())
	if s.Mults == 0 {
		t.Fatal("no multiplications counted")
	}
	if s.DistinctRotations > s.Rotations {
		t.Fatal("distinct rotations exceed total rotations")
	}
}
