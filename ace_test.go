package ace

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckksir"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/tensor"
	"antace/internal/vm"
)

func TestFacadeEndToEnd(t *testing.T) {
	model, err := onnx.BuildLinear(32, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(model, TestProfile())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog)
	if err != nil {
		t.Fatal(err)
	}
	image := tensor.New(1, 32)
	for i := range image.Data {
		image.Data[i] = math.Sin(float64(i)) / 2
	}
	enc, err := rt.Infer(image)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InferPlain(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := InferSim(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if math.Abs(enc.Data[i]-plain.Data[i]) > 1e-3 {
			t.Fatalf("output %d: encrypted %g vs plaintext %g", i, enc.Data[i], plain.Data[i])
		}
		if math.Abs(sim.Data[i]-plain.Data[i]) > 1e-9 {
			t.Fatalf("output %d: simulator %g vs plaintext %g", i, sim.Data[i], plain.Data[i])
		}
	}
	if rt.KeyCount() == 0 {
		t.Fatal("no rotation keys generated")
	}
	var sb strings.Builder
	Describe(prog, &sb)
	if !strings.Contains(sb.String(), "logN") {
		t.Fatal("Describe output incomplete")
	}
}

// TestEncryptedProjectionBlockAndGemm runs the layers whose rotation
// structure the derived baby/giant split changed most — a stride-2 1x1
// projection shortcut beside a stride-2 3x3 convolution, a convolution
// over the multiplexed layout they produce, and a final Gemm — encrypted
// under seeded keys, against the cleartext evaluators.
func TestEncryptedProjectionBlockAndGemm(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 7))
	weight := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * 0.3
		}
		return w
	}
	b := onnx.NewBuilder("projection_block")
	x := b.Input("image", 1, 2, 8, 8)
	y := b.Conv(x, b.Weight("conv1.w", weight(4, 2, 3, 3)), b.Weight("conv1.b", weight(4)), 2, 1)
	sc := b.Conv(x, b.Weight("proj.w", weight(4, 2, 1, 1)), "", 2, 0)
	y = b.Conv(b.Add(y, sc), b.Weight("conv2.w", weight(4, 4, 3, 3)), "", 1, 1)
	y = b.Flatten(b.GlobalAveragePool(y))
	b.Output(b.Gemm(y, b.Weight("fc.w", weight(3, 4)), b.Weight("fc.b", weight(3))), 1, 3)
	model := b.Model()
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(model, TestProfile())
	if err != nil {
		t.Fatal(err)
	}
	machine, client, err := vm.New(prog.CKKS, prog.VectorLen(), ring.SeedFromInt(19))
	if err != nil {
		t.Fatal(err)
	}
	rt := &Runtime{prog: prog, machine: machine, client: client}
	image := tensor.New(1, 2, 8, 8)
	for i := range image.Data {
		image.Data[i] = rng.Float64()*2 - 1
	}
	enc, err := rt.Infer(image)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InferPlain(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := InferSim(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if math.Abs(enc.Data[i]-plain.Data[i]) > 1e-3 {
			t.Fatalf("output %d: encrypted %g vs plaintext %g", i, enc.Data[i], plain.Data[i])
		}
		if math.Abs(sim.Data[i]-plain.Data[i]) > 1e-9 {
			t.Fatalf("output %d: simulator %g vs plaintext %g", i, sim.Data[i], plain.Data[i])
		}
	}
}

// TestCompilerAndRuntimeAgreeOnLevels runs the reduced ResNet-8 encrypted
// under the benchmark's profile (bench/infer.go) and under the test
// profile's defaults. The compiler, which takes every polynomial stage and
// the bootstrap circuit at the depth of their evaluation plans, and the
// runtime, which executes those plans, must agree on the level of every
// ckks.poly and ckks.bootstrap result (vm.check compares every
// instruction; the trajectory makes the two ops explicit), and the chain
// must be the short one: 13-level segments, at most 27 primes.
func TestCompilerAndRuntimeAgreeOnLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("two encrypted ResNet-8 inferences")
	}
	model, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	bench := TestProfile()
	bench.CKKS.Boot = bootstrap.Parameters{K: 24, DoubleAngle: 4}
	for name, profile := range map[string]Profile{"bench": bench, "test": TestProfile()} {
		prog, err := Compile(model, profile)
		if err != nil {
			t.Fatal(err)
		}
		res := prog.CKKS
		if want := []int{2, 13, 13, 13, 13, 13, 13, 12}; !reflect.DeepEqual(res.SegmentDepths, want) {
			t.Errorf("%s: segment depths %v, want %v", name, res.SegmentDepths, want)
		}
		if len(res.Literal.LogQ) > 27 || len(res.Literal.LogQ) != 1+res.TargetLevel+bootstrap.CircuitDepth(*res.Boot) {
			t.Errorf("%s: %d chain primes for target %d and a bootstrap of %d", name, len(res.Literal.LogQ), res.TargetLevel, bootstrap.CircuitDepth(*res.Boot))
		}
		machine, client, err := vm.New(res, prog.VectorLen(), ring.SeedFromInt(20))
		if err != nil {
			t.Fatal(err)
		}
		machine.Prof = obs.NewRunProfile()
		image := tensor.New(1, 3, 8, 8)
		for i := range image.Data {
			image.Data[i] = math.Sin(float64(i))
		}
		if _, err := (&Runtime{prog: prog, machine: machine, client: client}).Infer(image); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := res.Module.Main().Body
		seen := map[string]int{}
		for _, pt := range machine.Prof.Trajectory {
			if pt.Op != ckksir.OpPoly && pt.Op != ckksir.OpBootstrap {
				continue
			}
			seen[pt.Op]++
			if compiled := body[pt.PC].Result.Level; pt.Level != compiled {
				t.Errorf("%s: instr %d (%s): runtime level %d, compiler %d", name, pt.PC, pt.Op, pt.Level, compiled)
			}
		}
		if seen[ckksir.OpPoly] != 21 || seen[ckksir.OpBootstrap] != 7 {
			t.Errorf("%s: ran %d polynomial stages and %d bootstraps, want 21 and 7", name, seen[ckksir.OpPoly], seen[ckksir.OpBootstrap])
		}
	}
}

// TestDerivedSplitRotationCounts pins the rotation counts the derived
// baby/giant split was introduced for, on the benchmark's two models.
func TestDerivedSplitRotationCounts(t *testing.T) {
	gemv, err := onnx.BuildLinear(512, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	resnet8, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *Model
		most  int
	}{{"512x10 gemv", gemv, 46}, {"reduced ResNet-8", resnet8, 150}} {
		prog, err := Compile(tc.model, TestProfile())
		if err != nil {
			t.Fatal(err)
		}
		rotations := 0
		for _, in := range prog.CKKS.Module.Main().Body {
			if in.Op == ckksir.OpRotate {
				rotations++
			}
		}
		if rotations > tc.most {
			t.Errorf("%s: %d rotations, want at most %d", tc.name, rotations, tc.most)
		}
	}
}

func TestFacadeONNXFileRoundTrip(t *testing.T) {
	model, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{})
	path := t.TempDir() + "/m.onnx"
	if err := SaveONNX(model, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadONNX(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(back, TestProfile()); err != nil {
		t.Fatal(err)
	}
}

func TestPaperProfileSelectsSecureParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles at paper scale")
	}
	model, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperProfile()
	cfg.Vec.AnalysisOnly = true
	prog, err := Compile(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lit := prog.CKKS.Literal
	if lit.LogN != 16 || lit.LogQ[0] != 60 || lit.LogScale != 56 {
		t.Fatalf("Table 10 mismatch: logN=%d logQ0=%d logD=%d", lit.LogN, lit.LogQ[0], lit.LogScale)
	}
	// Segments of 13 and a bootstrap of 11 (both DFTs in two stages) make a
	// 25-prime chain of 60 + 13*56 + 11*60 = 1448 bits, which leaves logN 16
	// room for the balanced five special primes: 1753 of the 1772 bits the
	// 128-bit bound allows there.
	if len(lit.LogQ) != 25 || len(lit.LogP) != 5 {
		t.Fatalf("paper-scale ResNet-20 got %d chain and %d special primes, want 25 and 5", len(lit.LogQ), len(lit.LogP))
	}
	// Figure 7's driver: the program's own rotation keys (bootstrapping
	// adds its stage keys on top).
	if keys := len(prog.CKKS.Rotations); keys > 200 {
		t.Fatalf("paper-scale ResNet-20 needs %d program rotation keys, want at most 200", keys)
	}
}
