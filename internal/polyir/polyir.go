// Package polyir implements the POLY IR: every CKKS operation is
// decomposed into the RNS-polynomial primitives the runtime library (or
// a future hardware accelerator) executes — NTTs, per-modulus
// element-wise loops, digit decomposition/base extension, and modulus
// reduction — annotated with their residue counts. A bootstrap expands
// into the steps of its schedule (bootstrap.Schedule), each stage matrix
// as the fused baby-step/giant-step kernel runs it. Two optimisation
// passes mirror the paper's POLY-level techniques: operator fusion
// (decomp+mod_up, modmul+modadd) and RNS loop fusion, which merges
// adjacent element-wise loops with identical trip counts to cut memory
// traffic. The POLY module is an analysis view of the compiled program:
// Figure 5 times its lowering and Analyze summarises it; nothing
// executes it, and neither code generation nor the cost model reads it.
package polyir

import (
	"fmt"

	"antace/internal/bootstrap"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/poly"
)

// Op names ("hw_" marks primitives that map to accelerator
// instructions, as in the paper's Table 7).
const (
	OpNTT         = "poly.hw_ntt"
	OpINTT        = "poly.hw_intt"
	OpModAdd      = "poly.hw_modadd"
	OpModMul      = "poly.hw_modmul"
	OpModMulAdd   = "poly.hw_modmuladd" // fused multiply-accumulate
	OpRotate      = "poly.hw_rotate"    // NTT-domain automorphism permutation
	OpDecomp      = "poly.decomp"
	OpModUp       = "poly.mod_up"
	OpDecompModUp = "poly.decomp_modup" // fused
	OpModDown     = "poly.mod_down"
	OpRescale     = "poly.rescale"
	OpFusedLoop   = "poly.fused_eltwise" // loop-fused element-wise block
)

func init() {
	P := []ir.Kind{ir.KindPoly}
	for _, name := range []string{OpNTT, OpINTT, OpModAdd, OpModMul, OpModMulAdd, OpRotate, OpDecomp, OpModUp, OpDecompModUp, OpModDown, OpRescale, OpFusedLoop} {
		ir.RegisterOp(ir.OpSpec{Name: name, Args: [][]ir.Kind{P}, MinArgs: 0, Result: ir.KindPoly, RequiredAttrs: []string{"rns", "count"}})
	}
}

// Lower expands a compiled CKKS program into POLY IR counts, in the key-
// switching geometry and bootstrap circuit it was compiled for.
func Lower(res *ckksir.Result) (*ir.Module, error) {
	cm := res.Module
	src := cm.Main()
	if src == nil {
		return nil, fmt.Errorf("polyir: empty module")
	}
	g := res.Literal.Geometry()
	mod := ir.NewModule(cm.Name)
	for key, v := range cm.Attrs {
		mod.Attrs[key] = v
	}
	f := mod.NewFunc(src.Name)
	pt := ir.Type{Kind: ir.KindPoly, Shape: []int{1}}
	cur := f.NewParam("ct", pt)
	e := &expander{g: g, emit: func(op string, rns, count int) {
		if count > 0 {
			cur = f.Emit(op, pt, []*ir.Value{cur}, map[string]any{"rns": rns, "count": count})
		}
	}}

	for _, in := range src.Body {
		l := in.Result.Level
		r := l + 1
		switch in.Op {
		case ckksir.OpEncode:
			e.emit(OpNTT, r, 1)
		case ckksir.OpAdd:
			e.emit(OpModAdd, r, 2)
		case ckksir.OpAddPlain:
			e.emit(OpModAdd, r, 1)
		case ckksir.OpMulPlain, ckksir.OpMulConst:
			e.emit(OpModMul, r, 2)
		case ckksir.OpMul:
			e.mul(l)
		case ckksir.OpRelin:
			e.relin(l)
		case ckksir.OpRotate:
			e.rotate(l)
		case ckksir.OpRescale:
			e.emit(OpRescale, r, 2)
		case ckksir.OpModSwitch, ckksir.OpReinterpret:
			// Dropping RNS rows / re-declaring scale is free.
		case ckksir.OpPoly:
			p, err := poly.FromAttrs(in.Attrs)
			if err != nil {
				return nil, fmt.Errorf("polyir: %s: %w", in.Op, err)
			}
			e.polyEval(poly.NewPlan(p), in.Args[0].Level)
		case ckksir.OpBootstrap:
			if res.Boot == nil {
				return nil, fmt.Errorf("polyir: %s in a program compiled without a bootstrap circuit", in.Op)
			}
			for _, st := range bootstrap.Schedule(*res.Boot, g.LogN, in.AttrInt("target", 1)) {
				for i := 0; i < st.Count; i++ {
					e.bootstrapStep(st)
				}
			}
		default:
			return nil, fmt.Errorf("polyir: cannot lower %q", in.Op)
		}
	}
	f.Ret = cur
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return mod, nil
}

// expander emits the primitives of one program in its geometry.
type expander struct {
	g    kswork.Geometry
	emit func(op string, rns, count int)
}

// A hybrid key switch is three kernels, emitted apart because the fused
// linear transform runs them in other proportions than one per switch.

// decompose emits times digit decompositions of a polynomial entering at
// level: back to coefficients, then per digit decompose, extend to Q∪P
// and transform.
func (e *expander) decompose(level, times int) {
	r, digits := level+1, e.g.Digits(level)
	e.emit(OpINTT, r, times)
	e.emit(OpDecomp, r, times*digits)
	e.emit(OpModUp, r+e.g.K, times*digits)
	e.emit(OpNTT, r+e.g.K, times*digits)
}

// keyProduct emits times evaluation-key inner products: every digit
// multiplied into both key components and accumulated, over Q∪P.
func (e *expander) keyProduct(level, times int) {
	rk, digits := level+1+e.g.K, e.g.Digits(level)
	e.emit(OpModMul, rk, 4*digits*times)
	e.emit(OpModAdd, rk, 4*digits*times)
}

// modDown emits the division by P of the given number of polynomials:
// back to coefficients over Q∪P, divide, forward again.
func (e *expander) modDown(level, polys int) {
	r := level + 1
	e.emit(OpINTT, r+e.g.K, polys)
	e.emit(OpModDown, r, polys)
	e.emit(OpNTT, r, polys)
}

func (e *expander) keySwitch(level int) {
	e.decompose(level, 1)
	e.keyProduct(level, 1)
	e.modDown(level, 2)
}

// mul emits a ciphertext product: degree 2 out, not relinearised.
func (e *expander) mul(level int) {
	e.emit(OpModMul, level+1, 4)
	e.emit(OpModAdd, level+1, 1)
}

func (e *expander) relin(level int) {
	e.keySwitch(level)
	e.emit(OpModAdd, level+1, 2)
}

func (e *expander) rotate(level int) {
	r := level + 1
	e.emit(OpRotate, r, 2)
	e.keySwitch(level)
	e.emit(OpModAdd, r, 1)
}

// polyEval expands the evaluation plan of a polynomial whose input sits
// at the given level, every operation at the level the plan puts it.
func (e *expander) polyEval(pl *poly.Plan, level int) {
	pl.Walk(func(s poly.Step, depth int) {
		l := level - depth
		r := l + 1
		switch s {
		case poly.StepMul:
			e.mul(l)
		case poly.StepRelin:
			e.relin(l)
		case poly.StepRescale:
			e.emit(OpRescale, r, 2)
		case poly.StepMulConst:
			e.emit(OpModMul, r, 2)
		case poly.StepAdd:
			e.emit(OpModAdd, r, 2)
		}
	})
}

// linearTransform expands one stage matrix of diags diagonals entering
// at level as ckks.EvaluateLinearTransform runs it (kswork.LinearTransform
// counts the same kernels): the n1−1 baby rotations share one
// decomposition and stay over Q∪P, every diagonal is a multiply-
// accumulate per half in its group's inner sum, each of the n2−1 giant
// rotations divides its group's c1 half by P, decomposes it and adds a
// key product into the one accumulator, which is divided once at the end
// and rescaled.
func (e *expander) linearTransform(diags, level int) {
	n1, n2 := kswork.BabySteps(diags), kswork.GiantSteps(diags)
	r, rk := level+1, level+1+e.g.K
	if n1 > 1 {
		e.decompose(level, 1)
	}
	e.emit(OpRotate, rk, 2*(n1-1))
	e.keyProduct(level, n1-1)
	e.emit(OpModMul, rk, 2*diags)
	e.emit(OpModAdd, rk, 2*diags)
	e.modDown(level, n2-1)
	e.emit(OpRotate, rk, 2*(n2-1))
	e.decompose(level, n2-1)
	e.keyProduct(level, n2-1)
	e.modDown(level, 2)
	e.emit(OpRescale, r, 2)
}

// bootstrapStep expands one step of the bootstrap schedule on one
// ciphertext.
func (e *expander) bootstrapStep(s bootstrap.Step) {
	l, r := s.Level, s.Level+1
	switch s.Kind {
	case bootstrap.StepC2S, bootstrap.StepS2C:
		e.linearTransform(s.Diags, l)
	case bootstrap.StepConjugate:
		e.rotate(l)
		e.emit(OpModAdd, r, 4) // the halves' sum and difference
	case bootstrap.StepEvalMod:
		e.polyEval(s.Plan, l)
	case bootstrap.StepDoubleAngle: // 2y² − 1: square, double, relinearise, rescale
		e.mul(l)
		e.emit(OpModAdd, r, 2)
		e.relin(l)
		e.emit(OpRescale, r, 2)
	}
}

// Stats summarises a POLY module.
type Stats struct {
	Loops       int // element-wise loop launches
	FusedLoops  int
	NTTs        int // weighted by residue count
	ModMuls     int // weighted by residue count
	KeySwitches int
}

// Analyze computes stats (NTT/ModMul totals weighted by rns count).
func Analyze(f *ir.Func) Stats {
	s := Stats{}
	for _, in := range f.Body {
		rns := in.AttrInt("rns", 1)
		count := in.AttrInt("count", 1)
		switch in.Op {
		case OpNTT, OpINTT:
			s.NTTs += rns * count
			s.Loops += count
		case OpModMul, OpModMulAdd:
			s.ModMuls += rns * count
			s.Loops += count
		case OpModAdd, OpRescale, OpRotate, OpDecomp, OpModUp, OpDecompModUp, OpModDown:
			s.Loops += count
		case OpFusedLoop:
			s.FusedLoops += count
			s.Loops += count
			s.ModMuls += rns * in.AttrInt("ops", count)
		}
		if in.Op == OpModDown {
			s.KeySwitches += count // two divided halves per switch; adjusted below
		}
	}
	s.KeySwitches /= 2
	return s
}

// FuseOperators merges decomp+mod_up pairs into decomp_modup and
// modmul+modadd pairs (same rns and count) into hw_modmuladd — the
// paper's POLY operator fusion, which the runtime exposes as fused
// library kernels.
func FuseOperators() ir.Pass {
	return ir.FuncPass{PassName: "poly-operator-fusion", PassLevel: "POLY", Fn: func(f *ir.Func) error {
		var body []*ir.Instr
		for i := 0; i < len(f.Body); i++ {
			in := f.Body[i]
			if i+1 < len(f.Body) {
				next := f.Body[i+1]
				if in.Op == OpDecomp && next.Op == OpModUp {
					fused := &ir.Instr{Op: OpDecompModUp, Args: in.Args,
						Attrs:  map[string]any{"rns": next.AttrInt("rns", 1), "count": in.AttrInt("count", 1)},
						Result: next.Result}
					next.Result.Def = fused
					body = append(body, fused)
					i++
					continue
				}
				if in.Op == OpModMul && next.Op == OpModAdd &&
					in.AttrInt("rns", 0) == next.AttrInt("rns", 0) &&
					in.AttrInt("count", 0) == next.AttrInt("count", 0) {
					fused := &ir.Instr{Op: OpModMulAdd, Args: in.Args,
						Attrs:  map[string]any{"rns": in.AttrInt("rns", 1), "count": in.AttrInt("count", 1)},
						Result: next.Result}
					next.Result.Def = fused
					body = append(body, fused)
					i++
					continue
				}
			}
			body = append(body, in)
		}
		f.Body = body
		return nil
	}}
}

// FuseRNSLoops merges runs of adjacent element-wise ops with identical
// residue counts into single fused loops (trip counts are compile-time
// constants in RNS-CKKS, making this always legal for element-wise ops).
func FuseRNSLoops() ir.Pass {
	eltwise := map[string]bool{OpModAdd: true, OpModMul: true, OpModMulAdd: true}
	return ir.FuncPass{PassName: "poly-rns-loop-fusion", PassLevel: "POLY", Fn: func(f *ir.Func) error {
		var body []*ir.Instr
		for i := 0; i < len(f.Body); i++ {
			in := f.Body[i]
			if !eltwise[in.Op] {
				body = append(body, in)
				continue
			}
			rns := in.AttrInt("rns", 1)
			total := in.AttrInt("count", 1)
			j := i + 1
			for j < len(f.Body) && eltwise[f.Body[j].Op] && f.Body[j].AttrInt("rns", 1) == rns {
				total += f.Body[j].AttrInt("count", 1)
				j++
			}
			if j == i+1 {
				body = append(body, in)
				continue
			}
			last := f.Body[j-1]
			// One fused launch covering `total` element-wise operations.
			fused := &ir.Instr{Op: OpFusedLoop, Args: in.Args,
				Attrs:  map[string]any{"rns": rns, "count": 1, "ops": total},
				Result: last.Result}
			last.Result.Def = fused
			body = append(body, fused)
			i = j - 1
		}
		f.Body = body
		return nil
	}}
}

// LowerFromCKKS lowers a compiled program and runs both fusion passes.
func LowerFromCKKS(res *ckksir.Result) (*ir.Module, error) {
	mod, err := Lower(res)
	if err != nil {
		return nil, err
	}
	pm := &ir.PassManager{}
	pm.Add(FuseOperators(), FuseRNSLoops())
	if err := pm.Run(mod); err != nil {
		return nil, err
	}
	return mod, nil
}
