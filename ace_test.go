package ace

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vecir"
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

// TestDerivedSplitRotationCounts pins the rotation and mask counts the
// derived baby/giant split and the fold period were introduced for, on
// the benchmark's two models.
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
		name        string
		model       *Model
		most, masks int
	}{{"512x10 gemv", gemv, 12, 16}, {"reduced ResNet-8", resnet8, 125, 415}} {
		prog, err := Compile(tc.model, TestProfile())
		if err != nil {
			t.Fatal(err)
		}
		rotations, masks := 0, 0
		for _, in := range prog.CKKS.Module.Main().Body {
			switch in.Op {
			case ckksir.OpRotate:
				rotations++
			case ckksir.OpMulPlain:
				masks++
			}
		}
		if rotations > tc.most {
			t.Errorf("%s: %d rotations, want at most %d", tc.name, rotations, tc.most)
		}
		if masks > tc.masks {
			t.Errorf("%s: %d mul_plain, want at most %d", tc.name, masks, tc.masks)
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
	if keys := len(prog.CKKS.Rotations); keys > 120 {
		t.Fatalf("paper-scale ResNet-20 needs %d program rotation keys, want at most 120", keys)
	}
	// Folded linear layers: one mask per distinct offset mod each layer's
	// period (14 252 unfolded).
	if masks := vecir.Analyze(prog.Vec.Module.Main()).Mults; masks > 8100 {
		t.Fatalf("paper-scale ResNet-20 lowers to %d masks, want at most 8100", masks)
	}
}

// TestPaperCompileAllocation bounds what one AnalysisOnly compile of
// paper-scale ResNet-20 allocates: its masks are built one at a time into
// a reused buffer (≈ 150 MB in all), not all held at once (≈ 1.16 GB).
func TestPaperCompileAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles at paper scale")
	}
	model, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperProfile()
	cfg.Vec.AnalysisOnly = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Compile(model, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 400 {
		t.Fatalf("paper-scale ResNet-20 AnalysisOnly compile allocated %.0f MB, want at most 400", mb)
	}
}

// TestFoldedBiasStaysInReLURange runs a stride-2 convolution folded onto
// a short period, with a bias that cancels a large positive input to
// within the calibrated ReLU bound, into that ReLU and the bootstrap
// after it, encrypted. The products alone are ten times the bound, so a
// replica slot that missed the bias would leave the sign polynomial's
// range, and the bootstrap mixes every slot into every other. Every
// decrypted slot must match the noise-free simulation of the program
// within 1e-3, and the logits the plaintext reference within the ReLU
// approximation's error.
func TestFoldedBiasStaysInReLURange(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 11))
	uniform := func(lo, hi float64, shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = lo + (hi-lo)*rng.Float64()
		}
		return w
	}
	b := onnx.NewBuilder("folded_bias")
	x := b.Input("image", 1, 4, 8, 8)
	// About 10 in every slot of all four 64-slot blocks.
	y := b.Relu(b.Conv(x, b.Weight("lift.w", uniform(-0.05, 0.05, 4, 4, 1, 1)), b.Weight("lift.b", uniform(9.8, 10.2, 4)), 1, 0))
	// Products of about 10 biased to within ±1, on the 64 slots of one
	// block: the bound calibrates to 1.
	y = b.Relu(b.Conv(y, b.Weight("down.w", uniform(0.24, 0.26, 4, 4, 1, 1)), b.Weight("down.b", uniform(-10, -10, 4)), 2, 0))
	y = b.Relu(b.Conv(y, b.Weight("mix.w", uniform(-0.5, 0.5, 4, 4, 1, 1)), "", 1, 0))
	y = b.Flatten(b.GlobalAveragePool(y))
	b.Output(b.Gemm(y, b.Weight("fc.w", uniform(-1, 1, 3, 4)), b.Weight("fc.b", uniform(-1, 1, 3))), 1, 3)
	prog, err := Compile(b.Model(), TestProfile())
	if err != nil {
		t.Fatal(err)
	}
	if prog.CKKS.Bootstraps < 2 {
		t.Fatalf("%d bootstraps, want one after the folded layer's ReLU", prog.CKKS.Bootstraps)
	}
	image := uniform(-1, 1, 1, 4, 8, 8)
	packed, err := prog.Vec.InLayout.Pack(image.Data)
	if err != nil {
		t.Fatal(err)
	}

	// The premise: the stride-2 layer is folded, so its ReLU sees the 64
	// outputs at every slot.
	relus := 0
	if _, err := ir.RunSlots(prog.Vec.Module.Main(), packed, vecir.Kernels, func(in *ir.Instr, args [][]float64, _ []float64) {
		if in.Op != vecir.OpRelu {
			return
		}
		if relus++; relus == 2 {
			for s, v := range args[0] {
				if math.Abs(v-args[0][s%64]) > 1e-9 {
					t.Errorf("slot %d of the folded layer holds %g, its replica of slot %d %g", s, v, s%64, args[0][s%64])
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	machine, client, err := vm.New(prog.CKKS, prog.VectorLen(), ring.SeedFromInt(29))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(packed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(prog.CKKS.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := client.Decrypt(out)
	want, err := sihe.Run(prog.SIHE.Main(), packed)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if !(math.Abs(got[s]-want[s]) <= 1e-3) {
			t.Fatalf("slot %d: encrypted %g vs simulated %g", s, got[s], want[s])
		}
	}
	logits, err := prog.Vec.OutLayout.Unpack(got)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InferPlain(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if !(math.Abs(logits[i]-plain.Data[i]) <= 2e-2) {
			t.Fatalf("logit %d: encrypted %g vs plaintext %g", i, logits[i], plain.Data[i])
		}
	}
}
