package ckksir

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vecir"
)

func lowerToSIHE(t *testing.T, m *onnx.Model) *ir.Module {
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
	if err := nnir.CalibrateReLUBounds(nn.Main(), 2, 1.5, 7); err != nil {
		t.Fatal(err)
	}
	vres, err := vecir.Lower(nn, vecir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sihe.Lower(vres.Module, sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func TestLowerLinearScalesExact(t *testing.T) {
	m, _ := onnx.BuildLinear(16, 4, 3)
	sm := lowerToSIHE(t, m)
	res, err := Lower(sm, Options{Mode: BootstrapNever, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Module.Main()
	// Every cipher value must carry positive scale and non-negative level.
	for _, in := range f.Body {
		if in.Result.Type.Kind == ir.KindCipher {
			if in.Result.Level < 0 {
				t.Fatalf("%s: negative level", in.Op)
			}
			if in.Result.Scale <= 0 {
				t.Fatalf("%s: non-positive scale", in.Op)
			}
		}
	}
	// A linear model consumes exactly one level (the FC mul+rescale).
	if res.InputLevel != 1 {
		t.Fatalf("input level %d, want 1", res.InputLevel)
	}
	if res.Bootstraps != 0 {
		t.Fatal("linear model must not bootstrap")
	}
	// Final value back on the waterline scale.
	if rel := math.Abs(f.Ret.Scale/res.InputScale - 1); rel > 1e-9 {
		t.Fatalf("output scale %g vs waterline %g", f.Ret.Scale, res.InputScale)
	}
}

func TestLowerCNNWithBootstrapPlacement(t *testing.T) {
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	sm := lowerToSIHE(t, m)
	res, err := Lower(sm, Options{Mode: BootstrapAlways, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	// One bootstrap per ReLU, except before the leading segments a fresh
	// ciphertext has the levels for: segment e may run without one while
	// it starts at the refresh target and the input above it stays under
	// the chain's top. The last bootstrap stays.
	top, segs := len(res.Literal.LogQ)-1, res.SegmentDepths
	elided, before := 0, 0
	for elided < len(segs)-2 && res.TargetLevel+before+segs[elided] <= top {
		before += segs[elided]
		elided++
	}
	if want := len(segs) - 1 - elided; res.Bootstraps != want || elided == 0 {
		t.Fatalf("bootstraps %d for segments %v; want %d: one per ReLU but the %d leading ones", res.Bootstraps, segs, want, elided)
	}
	if res.InputLevel != res.TargetLevel+before {
		t.Fatalf("input level %d, want the target %d plus the %d levels before the last segment run without a bootstrap", res.InputLevel, res.TargetLevel, before)
	}
	// All segments beyond the first must fit the uniform target, which
	// sits above SlotsToCoeffs' levels.
	for i, d := range segs {
		if i > 0 && d > res.TargetLevel-res.Boot.S2CStages {
			t.Fatalf("segment %d depth %d exceeds target %d", i, d, res.TargetLevel)
		}
	}
	// Chain layout: q0, the circuit's levels around the target's compute
	// levels, and the top is where the raise lifts to.
	if want := 1 + res.TargetLevel + bootstrap.CircuitDepth(*res.Boot) - res.Boot.S2CStages; len(res.Literal.LogQ) != want || top != bootstrap.RaiseLevel(*res.Boot, res.TargetLevel) {
		t.Fatalf("chain length %d, want %d", len(res.Literal.LogQ), want)
	}
	// Bootstrap ops must take their input at SlotsToCoeffs' level and
	// refresh to the target.
	for _, in := range res.Module.Main().Body {
		if in.Op == OpBootstrap {
			if in.Args[0].Level != res.Boot.S2CStages {
				t.Fatalf("bootstrap input at level %d, not %d", in.Args[0].Level, res.Boot.S2CStages)
			}
			if in.Result.Level != res.TargetLevel {
				t.Fatal("bootstrap output not at the planned target")
			}
		}
	}
}

// tinyReLU is conv → ReLU → pool → gemm: two segments, a shallow program.
func tinyReLU() *onnx.Model {
	b := onnx.NewBuilder("tiny_relu")
	w := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data {
			t.Data[i] = 0.1 * float64(i%7-3)
		}
		return t
	}
	cur := b.Input("image", 1, 1, 4, 4)
	cur = b.Conv(cur, b.Weight("conv.weight", w(2, 1, 3, 3)), b.Weight("conv.bias", w(2)), 1, 1)
	cur = b.Flatten(b.GlobalAveragePool(b.Relu(cur)))
	cur = b.Gemm(cur, b.Weight("fc.weight", w(3, 2)), b.Weight("fc.bias", tensor.New(3)))
	b.Output(cur, 1, 3)
	return b.Model()
}

// TestLeadingSegmentsRunBootstrapFree pins where bootstraps go. The
// benchmark's ResNet-8 runs its stem and first block from a fresh
// ciphertext encrypted at their depths above the refresh target (one
// bootstrap fewer than ReLUs); Expert encrypts at the target and
// bootstraps before every ReLU; and in Auto mode a program that the
// chain a bootstrap needs could hold whole does not bootstrap at all.
func TestLeadingSegmentsRunBootstrapFree(t *testing.T) {
	r8, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	sm := lowerToSIHE(t, r8)
	res, err := Lower(sm, bench0())
	if err != nil {
		t.Fatal(err)
	}
	segs := res.SegmentDepths
	if len(segs) != 8 || res.Bootstraps != 6 || res.InputLevel != res.TargetLevel+segs[0] || segs[1] != res.TargetLevel-res.Boot.S2CStages {
		t.Errorf("resnet8: %d bootstraps for segments %v, input level %d, target %d; want 6, the first two segments run bootstrap-free from level %d",
			res.Bootstraps, segs, res.InputLevel, res.TargetLevel, res.TargetLevel+segs[0])
	}
	if top := bootstrap.RaiseLevel(*res.Boot, res.TargetLevel); res.InputLevel > top || res.InputLevel+segs[1] <= top {
		t.Errorf("resnet8: input at level %d under a top of %d; the third segment must not fit", res.InputLevel, top)
	}
	body := res.Module.Main().Body
	first := 0
	for first < len(body) && body[first].Op != OpBootstrap {
		first++
	}
	if first == len(body) || body[first].Args[0].Level != res.Boot.S2CStages {
		t.Fatalf("resnet8: first bootstrap at %d of %d instructions", first, len(body))
	}
	polys := 0
	for _, in := range body[:first] {
		if in.Op == OpPoly {
			polys++
		}
	}
	if polys != 3 {
		t.Errorf("resnet8: %d polynomial stages before the first bootstrap, want the first ReLU's 3", polys)
	}

	opts := bench0()
	opts.Mode, opts.ExpertSlack = BootstrapAlways, 3
	expert, err := Lower(sm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if expert.Bootstraps != len(segs)-1 || expert.InputLevel != expert.TargetLevel {
		t.Errorf("expert: %d bootstraps, input level %d, target %d; want one per ReLU from the target", expert.Bootstraps, expert.InputLevel, expert.TargetLevel)
	}

	tiny := lowerToSIHE(t, tinyReLU())
	flat, err := plan(tiny.Main(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []BootstrapMode{BootstrapAuto, BootstrapAlways} {
		res, err := Lower(tiny, Options{Mode: mode, MaxNoBootstrapDepth: flat[0] - 1, IgnoreSecurity: true})
		if err != nil {
			t.Fatal(err)
		}
		whole := res.Boot == nil && res.Bootstraps == 0 && len(res.Literal.LogQ) == 1+flat[0] && res.InputLevel == flat[0]
		if whole != (mode == BootstrapAuto) {
			t.Errorf("mode %d: %d bootstraps, chain of %d primes for a program %d deep", mode, res.Bootstraps, len(res.Literal.LogQ), flat[0])
		}
	}
}

func TestAutoModeSwitches(t *testing.T) {
	m, _ := onnx.BuildLinear(16, 4, 3)
	sm := lowerToSIHE(t, m)
	res, err := Lower(sm, Options{Mode: BootstrapAuto, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bootstraps != 0 {
		t.Fatal("shallow circuit must not bootstrap in Auto mode")
	}

	mc, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	smc := lowerToSIHE(t, mc)
	res2, err := Lower(smc, Options{Mode: BootstrapAuto, MaxNoBootstrapDepth: 10, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bootstraps == 0 {
		t.Fatal("deep circuit must bootstrap in Auto mode")
	}
}

func TestSelectParametersSecurity(t *testing.T) {
	// Deep chain without IgnoreSecurity must push LogN up.
	lit, _, _, err := SelectParameters([]int{20, 20}, 16384, 0, Options{LogScale: 56})
	if err != nil {
		t.Fatal(err)
	}
	if lit.LogN < 16 {
		t.Fatalf("LogN %d too small for a %d-level chain", lit.LogN, len(lit.LogQ))
	}
	// Slot requirement dominates when security is ignored.
	lit2, _, _, err := SelectParameters([]int{2}, 4096, 0, Options{IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	if 1<<(lit2.LogN-1) < 4096 {
		t.Fatalf("LogN %d cannot hold 4096 slots", lit2.LogN)
	}
}

// TestSpecialPrimeSelection pins the special-modulus rule: balanced
// digits, never fewer than two primes, never more than the security
// bound leaves room for.
func TestSpecialPrimeSelection(t *testing.T) {
	for _, c := range []struct{ chain, most, want int }{
		{2, 30, 2}, {4, 30, 2}, {5, 30, 3}, {7, 30, 3}, {16, 30, 4}, {29, 30, 6}, {30, 30, 6},
		{30, 4, 4}, {30, 2, 2}, {30, 0, 2}, {30, -3, 2},
	} {
		if got := specialPrimes(c.chain, c.most); got != c.want {
			t.Errorf("specialPrimes(%d, %d) = %d, want %d", c.chain, c.most, got, c.want)
		}
	}

	// A two-prime chain (the gemv and serving workloads) keeps the
	// literal it always had.
	lit, _, _, err := SelectParameters([]int{1}, 512, 0, Options{LogScale: 40, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ckks.ParametersLiteral{LogN: 10, LogQ: []int{60, 40}, LogP: []int{61, 61}, LogScale: 40}
	if !reflect.DeepEqual(lit, want) {
		t.Errorf("two-prime chain: literal %+v, want %+v", lit, want)
	}

	// A bootstrapped 27-prime chain without the security floor: six
	// special primes, and the ring degree is still the slot floor.
	deep, _, _, err := SelectParameters([]int{13, 13}, 256, resnet8Keys, Options{LogScale: 40, IgnoreSecurity: true, Boot: bootstrap.Parameters{K: 24, DoubleAngle: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.LogQ) != 27 || len(deep.LogP) != 6 || deep.LogN != 9 {
		t.Errorf("deep chain: %d primes, %d special, logN %d; want 27, 6, 9", len(deep.LogQ), len(deep.LogP), deep.LogN)
	}

	// Under the security floor the special modulus only fills what the
	// ring degree leaves spare. This paper-scale chain (28 primes, 60 +
	// 15*56 + 12*60 = 1620 bits) needs logN 16 with two special primes and
	// has 152 bits to the bound, no room for a third; the same chain in a
	// ring forced one size up has room for the balanced count.
	secure := Options{LogScale: 56, Mode: BootstrapAlways}
	paper, _, _, err := SelectParameters([]int{15, 15}, 1<<14, 0, secure)
	if err != nil {
		t.Fatal(err)
	}
	bits := 0
	for _, b := range append(append([]int{}, paper.LogQ...), paper.LogP...) {
		bits += b
	}
	if paper.LogN != 16 || len(paper.LogP) != 2 || bits > ckks.MaxLogQP(16) {
		t.Errorf("secure chain: logN %d, %d special primes, %d bits (bound %d)", paper.LogN, len(paper.LogP), bits, ckks.MaxLogQP(16))
	}
	secure.ForceLogN = 17
	roomy, _, _, err := SelectParameters([]int{15, 15}, 1<<14, 0, secure)
	if err != nil {
		t.Fatal(err)
	}
	if k := len(roomy.LogP); k*k < len(roomy.LogQ) {
		t.Errorf("roomy ring: %d special primes for %d chain primes", k, len(roomy.LogQ))
	}
}

// TestStageSelection pins the DFT stage rule: stages are bought with
// chain primes where the priced bootstrap gets cheaper by more than the
// evaluation keys grow, never with a larger ring, and never fewer as the
// ring grows.
func TestStageSelection(t *testing.T) {
	// The benchmark's reduced ResNet-8 (bench/infer.go, 13-level segments):
	// both transforms in two stages, 27 primes in all. SlotsToCoeffs runs
	// on the three primes at the bottom of the chain, where one stage of
	// 256 diagonals would save more work than a second stage's prime costs
	// every key, but needs 30 rotation keys, more than the saving pays for
	// beside the program's 30; a third CoeffsToSlots
	// stage saves less than its prime costs.
	bench := bench0()
	lit, target, boot, err := SelectParameters([]int{13, 13}, 256, resnet8Keys, bench)
	if err != nil {
		t.Fatal(err)
	}
	if boot.C2SStages != 2 || boot.S2CStages != 2 || len(lit.LogQ) != 27 || len(lit.LogP) != 6 || lit.LogN != 9 {
		t.Errorf("bench chain: stages %d/%d, %d primes, %d special, logN %d; want 2/2, 27, 6, 9",
			boot.C2SStages, boot.S2CStages, len(lit.LogQ), len(lit.LogP), lit.LogN)
	}
	if want := 1 + target + bootstrap.CircuitDepth(*boot) - boot.S2CStages; len(lit.LogQ) != want || target != 13+boot.S2CStages {
		t.Errorf("bench chain: %d primes for target %d and depth %d", len(lit.LogQ), target, bootstrap.CircuitDepth(*boot))
	}
	// A stage count the caller fixes is kept; the other is still chosen.
	bench.Boot.S2CStages = 1
	if lit, _, boot, err = SelectParameters([]int{13, 13}, 256, resnet8Keys, bench); err != nil || boot.C2SStages != 2 || boot.S2CStages != 1 || len(lit.LogQ) != 26 {
		t.Errorf("fixed S2C: stages %+v, %d primes, err %v; want 2/1, 26", boot, len(lit.LogQ), err)
	}
	// Shallow segments get the same split in the same ring.
	if _, _, boot, err = SelectParameters([]int{4, 4}, 256, resnet8Keys, bench0()); err != nil || boot.C2SStages != 2 || boot.S2CStages != 2 {
		t.Errorf("4-level segments: stages %+v, err %v; want 2/2", boot, err)
	}

	// Paper-scale ResNet-20 under the security floor: the shortest chain
	// (one stage each, 23 primes, 1328 bits) needs logN 16 and leaves 322
	// bits below the bound beside two special primes. At 2^15 slots every
	// cut has a stage table that outgrows 256 MiB (512 rows of 2^16
	// coefficients), and four CoeffsToSlots and three SlotsToCoeffs
	// stages spill the fewest rows.
	paper := Options{LogQ0: 60, LogScale: 56, Mode: BootstrapAlways, Boot: bootstrap.Parameters{EvalModDegree: 24, DoubleAngle: 2}}
	lit, _, boot, err = SelectParameters([]int{13, 13}, 1<<14, paperKeys, paper)
	if err != nil {
		t.Fatal(err)
	}
	if lit.LogN != 16 || len(lit.LogQ) != 28 || len(lit.LogP) != 2 || boot.C2SStages != 4 || boot.S2CStages != 3 {
		t.Errorf("paper chain: logN %d, %d primes, %d special, stages %d/%d; want 16, 28, 2, 4/3",
			lit.LogN, len(lit.LogQ), len(lit.LogP), boot.C2SStages, boot.S2CStages)
	}
	// The same program in a ring forced one size up has the room.
	paper.ForceLogN = 17
	_, _, roomy, err := SelectParameters([]int{13, 13}, 1<<14, paperKeys, paper)
	if err != nil {
		t.Fatal(err)
	}
	if roomy.C2SStages+roomy.S2CStages <= boot.C2SStages+boot.S2CStages {
		t.Errorf("roomy ring: stages %d/%d, no more than the tight ring's %d/%d", roomy.C2SStages, roomy.S2CStages, boot.C2SStages, boot.S2CStages)
	}

	// Monotone in the ring: more slots never get fewer stages of either
	// transform, and a transform is never cut finer than its layers.
	prev := bootstrap.Parameters{}
	for logSlots := 1; logSlots <= 15; logSlots++ {
		lit, _, boot, err := SelectParameters([]int{13, 13}, 1<<logSlots, resnet8Keys, bench0())
		if err != nil {
			t.Fatal(err)
		}
		if boot.C2SStages < prev.C2SStages || boot.S2CStages < prev.S2CStages {
			t.Errorf("%d slots: stages %d/%d after %d/%d for half as many", 1<<logSlots, boot.C2SStages, boot.S2CStages, prev.C2SStages, prev.S2CStages)
		}
		if boot.C2SStages > logSlots || boot.S2CStages > logSlots || lit.LogN != logSlots+1 {
			t.Errorf("%d slots: stages %d/%d at logN %d", 1<<logSlots, boot.C2SStages, boot.S2CStages, lit.LogN)
		}
		prev = *boot
	}
	// Two SlotsToCoeffs stages of 256 diagonals would overflow their
	// tables at 32768 slots, though they run at the bottom of the chain.
	if prev.C2SStages < 3 || prev.S2CStages < 3 {
		t.Errorf("32768 slots: only %d/%d stages", prev.C2SStages, prev.S2CStages)
	}
}

// resnet8Keys and paperKeys are the rotation keys the benchmark's
// reduced ResNet-8 and paper-scale ResNet-20 need besides the bootstrap's
// (RotationKeys of their SIHE programs), which the stage rule weighs.
const resnet8Keys, paperKeys = 30, 117

// bench0 is the benchmark profile's CKKS options with no stage fixed.
func bench0() Options {
	return Options{LogScale: 40, IgnoreSecurity: true, Boot: bootstrap.Parameters{K: 24, DoubleAngle: 4}}
}

func TestExpertSlackRaisesChain(t *testing.T) {
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	sm := lowerToSIHE(t, m)
	ace, err := Lower(sm, Options{Mode: BootstrapAlways, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	sm2 := lowerToSIHE(t, m)
	expert, err := Lower(sm2, Options{Mode: BootstrapAlways, IgnoreSecurity: true, ExpertSlack: 3})
	if err != nil {
		t.Fatal(err)
	}
	if expert.TargetLevel != ace.TargetLevel+3 {
		t.Fatalf("expert target %d, ace %d", expert.TargetLevel, ace.TargetLevel)
	}
	if len(expert.Literal.LogQ) <= len(ace.Literal.LogQ) {
		t.Fatal("expert chain not longer")
	}
}

// TestLazyRescaleReducesRescales: two rescaled products, one rotated,
// summed — the shape a sum of masked rotations has outside a linear
// layer's kernel — keep one rescale, after the sum, at unchanged levels
// and scales.
func TestLazyRescaleReducesRescales(t *testing.T) {
	mod := ir.NewModule("lazy")
	f := mod.NewFunc("main")
	ct, pt := ir.CipherType(8), ir.PlainType(8)
	x := f.NewParam("x", ct)
	x.Level, x.Scale = 2, 1<<40
	rescaled := func() *ir.Value {
		c := f.NewConst("mask", ir.VectorType(8), []float64{1, 2})
		p := f.Emit(OpEncode, pt, []*ir.Value{c}, map[string]any{"level": 2, "scale": float64(1 << 40)})
		p.Level, p.Scale = 2, 1<<40
		prod := f.Emit(OpMulPlain, ct, []*ir.Value{x, p}, nil)
		prod.Level, prod.Scale = 2, 1<<80
		out := f.Emit(OpRescale, ct, []*ir.Value{prod}, nil)
		out.Level, out.Scale = 1, 1<<40
		return out
	}
	a := rescaled()
	rot := f.Emit(OpRotate, ct, []*ir.Value{rescaled()}, map[string]any{"k": 1})
	rot.Level, rot.Scale = 1, 1<<40
	f.Ret = f.Emit(OpAdd, ct, []*ir.Value{a, rot}, nil)
	f.Ret.Level, f.Ret.Scale = 1, 1<<40
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	input := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	want, err := Run(f, input)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := CountOps(f)
	pm := &ir.PassManager{}
	pm.Add(LazyRescale(), ir.DCE())
	if err := pm.Run(mod); err != nil {
		t.Fatal(err)
	}
	after, _ := CountOps(f)
	if before[OpRescale] != 2 || after[OpRescale] != 1 {
		t.Fatalf("lazy rescale took rescales %d -> %d, want 2 -> 1", before[OpRescale], after[OpRescale])
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	if r := f.Ret; r.Level != 1 || r.Scale != 1<<40 || r.Def.Op != OpRescale {
		t.Fatalf("output %s at level %d scale %g", r.Def.Op, r.Level, r.Scale)
	}
	got, err := Run(f, input)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lazy rescale changed the result: %v, want %v", got, want)
	}
}

// TestArtifactRefusesOtherVersions: an artifact of another format
// version is refused before anything in it is rebuilt.
func TestArtifactRefusesOtherVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifact{Version: artifactVersion + 1, Main: &ir.Table{}}); err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := r.UnmarshalBinary(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("got %v, want a version error", err)
	}
}

// TestArtifactRefusesVersion2: a version-2 artifact planned its
// segments down to level 0 for a bootstrap that ran SlotsToCoeffs last,
// so it is refused with the advice to recompile, never run.
func TestArtifactRefusesVersion2(t *testing.T) {
	m, _ := onnx.BuildLinear(16, 4, 3)
	res, err := Lower(lowerToSIHE(t, m), Options{Mode: BootstrapNever, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&a); err != nil {
		t.Fatal(err)
	}
	a.Version = 2
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := r.UnmarshalBinary(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "recompile") || r.Module != nil {
		t.Fatalf("got %v and module %v, want a refusal that says to recompile", err, r.Module)
	}
}

// TestBootstrapOpsAreProgramOps: the bootstrap circuit runs program
// instructions (kswork declares the names both use), so every reader
// that expands a program instruction expands the circuit's the same way.
// The conjugation and the constant addition are no IR op and are
// expanded as the rotation and the plaintext addition they run as; the
// mod raise, no IR op either, is the one instruction kswork expands for
// the circuit alone.
func TestBootstrapOpsAreProgramOps(t *testing.T) {
	for name, priced := range map[string]string{bootstrap.OpConjugate: OpRotate, bootstrap.OpAddConst: OpAddPlain} {
		if _, ok := ir.LookupOp(name); ok {
			t.Errorf("%s is a registered IR op", name)
		}
		if got := (bootstrap.Op{Name: name}).Priced(); got != priced {
			t.Errorf("%s priced as %q, want %q", name, got, priced)
		}
	}
	seen := map[string]bool{}
	for _, op := range bootstrap.Schedule(bootstrap.Parameters{}, 12, 3) {
		seen[op.Name] = true
		if _, ok := ir.LookupOp(op.Priced()); ok == (op.Name == kswork.OpModRaise) {
			t.Errorf("%s is priced as %q, registered as an IR op: %v", op.Name, op.Priced(), ok)
		}
	}
	if len(seen) != 9 {
		t.Errorf("schedule uses %d instruction names, want all 9: %v", len(seen), seen)
	}
}
