package ckksir

import (
	"math"
	"reflect"
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/sihe"
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
	if res.Bootstraps != 2 {
		t.Fatalf("bootstraps %d, want 2 (one per ReLU)", res.Bootstraps)
	}
	// All segments beyond the first must fit the uniform target.
	for i, d := range res.SegmentDepths {
		if i > 0 && d > res.TargetLevel {
			t.Fatalf("segment %d depth %d exceeds target %d", i, d, res.TargetLevel)
		}
	}
	// Chain layout: q0 + target compute levels + circuit levels.
	if want := 1 + res.TargetLevel + bootstrap.CircuitDepth(*res.Boot); len(res.Literal.LogQ) != want {
		t.Fatalf("chain length %d, want %d", len(res.Literal.LogQ), want)
	}
	// Bootstrap ops must sit at level 0 inputs and target outputs.
	for _, in := range res.Module.Main().Body {
		if in.Op == OpBootstrap {
			if in.Args[0].Level != 0 {
				t.Fatal("bootstrap input not at level 0")
			}
			if in.Result.Level != res.TargetLevel {
				t.Fatal("bootstrap output not at the planned target")
			}
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
	lit, _, _, err := SelectParameters([]int{20, 20}, 16384, Options{LogScale: 56})
	if err != nil {
		t.Fatal(err)
	}
	if lit.LogN < 16 {
		t.Fatalf("LogN %d too small for a %d-level chain", lit.LogN, len(lit.LogQ))
	}
	// Slot requirement dominates when security is ignored.
	lit2, _, _, err := SelectParameters([]int{2}, 4096, Options{IgnoreSecurity: true})
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
	lit, _, _, err := SelectParameters([]int{1}, 512, Options{LogScale: 40, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ckks.ParametersLiteral{LogN: 10, LogQ: []int{60, 40}, LogP: []int{61, 61}, LogScale: 40}
	if !reflect.DeepEqual(lit, want) {
		t.Errorf("two-prime chain: literal %+v, want %+v", lit, want)
	}

	// A bootstrapped 27-prime chain without the security floor: six
	// special primes, and the ring degree is still the slot floor.
	deep, _, _, err := SelectParameters([]int{13, 13}, 256, Options{LogScale: 40, IgnoreSecurity: true, Boot: bootstrap.Parameters{K: 24, DoubleAngle: 4}})
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
	paper, _, _, err := SelectParameters([]int{15, 15}, 1<<14, secure)
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
	roomy, _, _, err := SelectParameters([]int{15, 15}, 1<<14, secure)
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
	// both transforms in two stages, 27 primes in all. The second
	// SlotsToCoeffs stage's prime does not start a digit (five digits of six
	// with or without it), so it costs the keys one prime in 33 and is
	// bought; a third CoeffsToSlots stage saves less than its prime costs.
	bench := bench0()
	lit, target, boot, err := SelectParameters([]int{13, 13}, 256, bench)
	if err != nil {
		t.Fatal(err)
	}
	if boot.C2SStages != 2 || boot.S2CStages != 2 || len(lit.LogQ) != 27 || len(lit.LogP) != 6 || lit.LogN != 9 {
		t.Errorf("bench chain: stages %d/%d, %d primes, %d special, logN %d; want 2/2, 27, 6, 9",
			boot.C2SStages, boot.S2CStages, len(lit.LogQ), len(lit.LogP), lit.LogN)
	}
	if want := 1 + target + bootstrap.CircuitDepth(*boot); len(lit.LogQ) != want {
		t.Errorf("bench chain: %d primes for target %d and depth %d", len(lit.LogQ), target, bootstrap.CircuitDepth(*boot))
	}
	// A stage count the caller fixes is kept; the other is still chosen.
	bench.Boot.S2CStages = 1
	if lit, _, boot, err = SelectParameters([]int{13, 13}, 256, bench); err != nil || boot.C2SStages != 2 || boot.S2CStages != 1 || len(lit.LogQ) != 26 {
		t.Errorf("fixed S2C: stages %+v, %d primes, err %v; want 2/1, 26", boot, len(lit.LogQ), err)
	}
	// Shallow segments get the same split in the same ring.
	if _, _, boot, err = SelectParameters([]int{4, 4}, 256, bench0()); err != nil || boot.C2SStages != 2 || boot.S2CStages != 2 {
		t.Errorf("4-level segments: stages %+v, err %v; want 2/2", boot, err)
	}

	// Paper-scale ResNet-20 under the security floor: the shortest chain
	// (one stage each, 23 primes, 1328 bits) needs logN 16 and leaves 322
	// bits below the bound beside two special primes — room for the second
	// stage of both transforms, and the special modulus takes the rest.
	paper := Options{LogQ0: 60, LogScale: 56, Mode: BootstrapAlways, Boot: bootstrap.Parameters{EvalModDegree: 24, DoubleAngle: 2}}
	lit, _, boot, err = SelectParameters([]int{13, 13}, 1<<14, paper)
	if err != nil {
		t.Fatal(err)
	}
	if lit.LogN != 16 || len(lit.LogQ) != 25 || len(lit.LogP) != 5 || boot.C2SStages != 2 || boot.S2CStages != 2 {
		t.Errorf("paper chain: logN %d, %d primes, %d special, stages %d/%d; want 16, 25, 5, 2/2",
			lit.LogN, len(lit.LogQ), len(lit.LogP), boot.C2SStages, boot.S2CStages)
	}
	// The same program in a ring forced one size up has the room.
	paper.ForceLogN = 17
	_, _, roomy, err := SelectParameters([]int{13, 13}, 1<<14, paper)
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
		lit, _, boot, err := SelectParameters([]int{13, 13}, 1<<logSlots, bench0())
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
	if prev.C2SStages < 3 {
		t.Errorf("32768 slots: only %d CoeffsToSlots stages", prev.C2SStages)
	}
}

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

func TestLazyRescaleReducesRescales(t *testing.T) {
	m, _ := onnx.BuildLinear(32, 8, 5)
	sm := lowerToSIHE(t, m)
	res, err := Lower(sm, Options{Mode: BootstrapNever, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := CountOps(res.Module.Main())
	pm := &ir.PassManager{}
	pm.Add(LazyRescale(), ir.DCE())
	if err := pm.Run(res.Module); err != nil {
		t.Fatal(err)
	}
	after, _ := CountOps(res.Module.Main())
	if after[OpRescale] >= before[OpRescale] {
		t.Fatalf("lazy rescale did not reduce rescales: %d -> %d", before[OpRescale], after[OpRescale])
	}
	if err := ir.VerifyFunc(res.Module.Main()); err != nil {
		t.Fatal(err)
	}
	// Levels and scales of the output are unchanged.
	if res.Module.Main().Ret.Level < 0 {
		t.Fatal("broken output level")
	}
}

func TestRotationAnalysis(t *testing.T) {
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	sm := lowerToSIHE(t, m)
	res, err := Lower(sm, Options{Mode: BootstrapNever, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rotations) == 0 {
		t.Fatal("no rotations recorded")
	}
	seen := map[int]bool{}
	for _, k := range res.Rotations {
		if seen[k] {
			t.Fatal("duplicate rotation in analysis")
		}
		seen[k] = true
	}
	// Every rotate instruction must be covered.
	for _, in := range res.Module.Main().Body {
		if in.Op == OpRotate && !seen[in.AttrInt("k", 0)] {
			t.Fatalf("rotation %d missing from analysis", in.AttrInt("k", 0))
		}
	}
}
