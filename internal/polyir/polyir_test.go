package polyir

import (
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/poly"
	"antace/internal/sihe"
	"antace/internal/vecir"
)

func compiledCKKS(t *testing.T, boot bool) *ckksir.Result {
	t.Helper()
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
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
	mode := ckksir.BootstrapNever
	if boot {
		mode = ckksir.BootstrapAlways
	}
	res, err := ckksir.Lower(sm, ckksir.Options{Mode: mode, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLowerProducesPolyOps(t *testing.T) {
	res := compiledCKKS(t, false)
	mod, err := Lower(res)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Main()
	if len(f.Body) == 0 {
		t.Fatal("empty POLY module")
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	s := Analyze(f)
	if s.NTTs == 0 || s.ModMuls == 0 {
		t.Fatalf("implausible stats %+v", s)
	}
	if s.KeySwitches == 0 {
		t.Fatal("no key switches counted")
	}
}

func TestOperatorFusion(t *testing.T) {
	res := compiledCKKS(t, false)
	mod, err := Lower(res)
	if err != nil {
		t.Fatal(err)
	}
	before := mod.Main().OpHistogram()
	if before[OpDecomp] == 0 {
		t.Fatal("no decomp ops to fuse")
	}
	if err := FuseOperators().Run(mod); err != nil {
		t.Fatal(err)
	}
	after := mod.Main().OpHistogram()
	if after[OpDecompModUp] == 0 {
		t.Fatal("no fused decomp_modup produced")
	}
	if after[OpDecomp] >= before[OpDecomp] {
		t.Fatal("decomp count did not drop")
	}
	if after[OpModMulAdd] == 0 {
		t.Fatal("no fused modmuladd produced")
	}
	if err := ir.VerifyFunc(mod.Main()); err != nil {
		t.Fatal(err)
	}
}

func TestRNSLoopFusion(t *testing.T) {
	res := compiledCKKS(t, false)
	mod, err := Lower(res)
	if err != nil {
		t.Fatal(err)
	}
	before := Analyze(mod.Main())
	if err := FuseRNSLoops().Run(mod); err != nil {
		t.Fatal(err)
	}
	after := Analyze(mod.Main())
	if after.Loops >= before.Loops {
		t.Fatalf("loop fusion did not reduce loop launches: %d -> %d", before.Loops, after.Loops)
	}
	if after.FusedLoops == 0 {
		t.Fatal("no fused loops produced")
	}
	if err := ir.VerifyFunc(mod.Main()); err != nil {
		t.Fatal(err)
	}
}

func TestLowerWithBootstrapExpands(t *testing.T) {
	res := compiledCKKS(t, true)
	mod, err := LowerFromCKKS(res)
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(mod.Main())
	noBoot := compiledCKKS(t, false)
	mod2, err := LowerFromCKKS(noBoot)
	if err != nil {
		t.Fatal(err)
	}
	s2 := Analyze(mod2.Main())
	if s.NTTs <= s2.NTTs {
		t.Fatal("bootstrap expansion did not add NTT work")
	}
}

// TestBootstrapExpandsTheSchedule: a bootstrap lowers step by step of
// its schedule, with the decompositions and divisions by P the runtime
// runs there (bootstrap's TestScheduleMatchesRuntime counts the same on
// a real bootstrap): one of each per key switch outside the transforms,
// and for a stage matrix of n1 baby and n2 giant steps [n1 > 1] + n2 − 1
// decompositions and n2 − 1 divided halves before one whole division.
func TestBootstrapExpandsTheSchedule(t *testing.T) {
	g := kswork.Geometry{LogN: 12, K: 3}
	for _, s := range bootstrap.Schedule(bootstrap.Parameters{C2SStages: 3, S2CStages: 2}, g.LogN, 4) {
		got := map[string]int{}
		e := &expander{g: g, emit: func(op string, _, count int) { got[op] += count }}
		e.bootstrapStep(s)
		digits, halves := g.Digits(s.Level), 2 // one key switch
		switch s.Kind {
		case bootstrap.StepC2S, bootstrap.StepS2C:
			n1, n2 := kswork.BabySteps(s.Diags), kswork.GiantSteps(s.Diags)
			decomps := n2 - 1
			if n1 > 1 {
				decomps++
			}
			digits, halves = decomps*g.Digits(s.Level), n2+1
		case bootstrap.StepEvalMod:
			digits, halves = 0, 0
			s.Plan.Walk(func(st poly.Step, depth int) {
				if st == poly.StepRelin {
					digits += g.Digits(s.Level - depth)
					halves += 2
				}
			})
		}
		if got[OpDecomp] != digits || got[OpModDown] != halves {
			t.Errorf("step %+v: %d digit decompositions and %d divided halves, want %d and %d", s, got[OpDecomp], got[OpModDown], digits, halves)
		}
	}
}

// TestLinearExpandsItsKernel: a ckks.linear expands as the fused kernel
// runs it — one decomposition for its babies and one per giant, a
// divided half per giant and one whole division for the group sum:
// three halves where the same three rotations as ckks.rotate
// instructions divide six.
func TestLinearExpandsItsKernel(t *testing.T) {
	mod := ir.NewModule("linear")
	f := mod.NewFunc("main")
	ct := ir.CipherType(64)
	x := f.NewParam("x", ct)
	x.Level = 3
	args := []*ir.Value{x}
	babies := []int{0, 1, 2, 0, 1, 2}
	for _, b := range babies {
		m := f.NewConst("mask", ir.VectorType(64), []float64{1})
		pt := f.Emit(ckksir.OpEncode, ir.PlainType(64), []*ir.Value{m}, map[string]any{"level": 3, "scale": 1.0, "qp": b != 0})
		pt.Level = 3
		args = append(args, pt)
	}
	lin := f.Emit(ckksir.OpLinear, ct, args, map[string]any{"b": babies, "g": []int{0, 0, 0, 4, 4, 4}})
	lin.Level = 2
	f.Ret = lin
	lit := ckks.ParametersLiteral{LogN: 12, LogQ: []int{50, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40}
	pm, err := Lower(&ckksir.Result{Module: mod, Literal: lit})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, in := range pm.Main().Body {
		counts[in.Op] += in.AttrInt("count", 1)
	}
	g := lit.Geometry()
	digits := 2 * g.Digits(3) // babies, one giant
	if halves := 1 + 2; counts[OpDecomp] != digits || counts[OpModDown] != halves {
		t.Fatalf("decomp %d (want %d), mod_down %d (want %d)", counts[OpDecomp], digits, counts[OpModDown], halves)
	}
}
