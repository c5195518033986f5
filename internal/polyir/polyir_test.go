package polyir

import (
	"math"
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/nnir"
	"antace/internal/onnx"
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
}

func TestOperatorFusion(t *testing.T) {
	res := compiledCKKS(t, false)
	mod, err := Lower(res)
	if err != nil {
		t.Fatal(err)
	}
	before := mod.Main().OpHistogram()
	if before[kswork.PolyDecomp] == 0 {
		t.Fatal("no decomp ops to fuse")
	}
	if err := FuseOperators().Run(mod); err != nil {
		t.Fatal(err)
	}
	after := mod.Main().OpHistogram()
	if after[kswork.PolyDecompModUp] == 0 {
		t.Fatal("no fused decomp_modup produced")
	}
	if after[kswork.PolyDecomp] >= before[kswork.PolyDecomp] {
		t.Fatal("decomp count did not drop")
	}
	if after[kswork.PolyModMulAdd] == 0 {
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

// TestLowerWithBootstrapExpands: a bootstrapping program's POLY module
// holds the transforms of its bootstraps' circuits besides its own. (The
// same model compiled without bootstraps is no yardstick: it runs every
// instruction on a longer chain.)
func TestLowerWithBootstrapExpands(t *testing.T) {
	res := compiledCKKS(t, true)
	mod, err := Lower(res)
	if err != nil {
		t.Fatal(err)
	}
	boot, all := 0, 0
	if err := ckksir.Walk(res, res.Literal.Geometry(), func(in *ir.Instr, p kswork.Prim) {
		if p.Op == kswork.PolyNTT || p.Op == kswork.PolyINTT {
			all += p.Rows * p.Count
			if in.Op == ckksir.OpBootstrap {
				boot += p.Rows * p.Count
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if s := Analyze(mod.Main()); res.Bootstraps == 0 || boot == 0 || s.NTTs != all {
		t.Fatalf("%d bootstraps: POLY module transforms %d rows, the program's expansion %d, %d of them its bootstraps'", res.Bootstraps, s.NTTs, all, boot)
	}
}

// fused lowers a hand-built program and joins its decompositions back
// into kernels, which leaves the expansion of the program as it is.
func fused(t *testing.T, res *ckksir.Result) *ir.Func {
	t.Helper()
	mod, err := Lower(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := FuseOperators().Run(mod); err != nil {
		t.Fatal(err)
	}
	return mod.Main()
}

// TestBootstrapExpandsTheSchedule: a bootstrap lowers instruction by
// instruction of its schedule, each at the level the schedule puts it:
// after operator fusion the POLY module is the schedule's expansion,
// primitive for primitive (bootstrap's TestScheduleMatchesRuntime holds
// that expansion's kernel calls to a real bootstrap's).
func TestBootstrapExpandsTheSchedule(t *testing.T) {
	mod := ir.NewModule("bootstrap")
	f := mod.NewFunc("main")
	x := f.NewParam("x", ir.CipherType(64))
	const target = 4
	out := f.Emit(ckksir.OpBootstrap, ir.CipherType(64), []*ir.Value{x}, map[string]any{"target": target})
	out.Level = target
	f.Ret = out
	boot := bootstrap.Parameters{C2SStages: 3, S2CStages: 2}
	lit := ckks.ParametersLiteral{LogN: 12, LogP: []int{50, 50, 50}}
	g := lit.Geometry()
	var want []kswork.Prim
	for _, op := range bootstrap.Schedule(boot, g.LogN, target) {
		if !op.Expand(g, func(p kswork.Prim) { want = append(want, p) }) {
			t.Fatalf("%s (run as %s) does not expand", op.Name, op.Priced())
		}
	}
	body := fused(t, &ckksir.Result{Module: mod, Literal: lit, Boot: &boot}).Body
	if len(body) != len(want) {
		t.Fatalf("%d POLY instructions, the schedule expands to %d primitives", len(body), len(want))
	}
	for i, in := range body {
		if p := want[i]; in.Op != p.Op || in.AttrInt("rns", 0) != p.Rows || in.AttrInt("count", 0) != p.Count {
			t.Fatalf("instr %d: %s over %d rows ×%d, the expansion has %s over %d ×%d", i, in.Op, in.AttrInt("rns", 0), in.AttrInt("count", 0), p.Op, p.Rows, p.Count)
		}
	}
}

// TestLinearExpandsItsKernel: a ckks.linear lowers at its input's level
// to the fused kernel's expansion, whose divisions by P are worth half of
// what the same three rotations as ckks.rotate instructions divide.
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
	g := lit.Geometry()
	kernels := func(emit func(func(kswork.Prim))) map[string]kswork.Prim {
		out := map[string]kswork.Prim{}
		emit(func(p kswork.Prim) {
			if p.Units > 0 {
				q := out[p.Op]
				out[p.Op] = kswork.Prim{Op: p.Op, Rows: p.Rows, Count: q.Count + p.Count, Units: q.Units + p.Units}
			}
		})
		return out
	}
	want := kernels(func(emit func(kswork.Prim)) { g.Expand(ckksir.OpLinear, 3, ckksir.LinearSplit(lin.Def), nil, emit) })
	got := map[string]int{}
	for _, in := range fused(t, &ckksir.Result{Module: mod, Literal: lit}).Body {
		got[in.Op] += in.AttrInt("count", 0)
		if p, ok := want[in.Op]; ok && in.AttrInt("rns", 0) != p.Rows {
			t.Errorf("%s over %d rows, the expansion at level 3 has %d", in.Op, in.AttrInt("rns", 0), p.Rows)
		}
	}
	for op, p := range want {
		if got[op] != p.Count {
			t.Errorf("%s called %d times, the expansion calls it %d times", op, got[op], p.Count)
		}
	}
	rotations := kernels(func(emit func(kswork.Prim)) {
		for range 3 {
			g.Expand(ckksir.OpRotate, 3, kswork.Split{}, nil, emit)
		}
	})
	if lw, rw := want[kswork.PolyModDown].Units, rotations[kswork.PolyModDown].Units; math.Abs(2*lw-rw) > 1e-9*rw {
		t.Errorf("the linear layer divides %g units by P, three rotations %g", lw, rw)
	}
}
