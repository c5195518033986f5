// Package polyir implements the POLY IR: every CKKS operation is
// decomposed into the RNS-polynomial primitives the runtime library (or
// a future hardware accelerator) executes — NTTs, per-modulus
// element-wise loops, digit decomposition/base extension, and modulus
// reduction — annotated with their residue counts. Two optimisation
// passes mirror the paper's POLY-level techniques: operator fusion
// (decomp+mod_up, modmul+modadd) and RNS loop fusion, which merges
// adjacent element-wise loops with identical trip counts to cut memory
// traffic. The POLY module drives code generation and the analytic cost
// model; it is not executed directly.
package polyir

import (
	"fmt"

	"antace/internal/bootstrap"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/poly"
	"antace/internal/sihe"
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

// Lower expands a CKKS module into POLY IR counts. alpha is the number
// of special primes (key-switch digit width); k their count.
func Lower(cm *ir.Module, alpha, k int) (*ir.Module, error) {
	src := cm.Main()
	if src == nil {
		return nil, fmt.Errorf("polyir: empty module")
	}
	mod := ir.NewModule(cm.Name)
	for key, v := range cm.Attrs {
		mod.Attrs[key] = v
	}
	f := mod.NewFunc(src.Name)
	pt := ir.Type{Kind: ir.KindPoly, Shape: []int{1}}
	seed := f.NewParam("ct", pt)
	cur := seed

	emit := func(op string, rns, count int) {
		if count <= 0 {
			return
		}
		cur = f.Emit(op, pt, []*ir.Value{cur}, map[string]any{"rns": rns, "count": count})
	}
	keySwitch := func(level int) {
		r := level + 1
		digits := (r + alpha - 1) / alpha
		emit(OpINTT, r, 1)
		// Per digit: decompose, extend to Q∪P, forward NTT, and
		// multiply-accumulate against both key components.
		emit(OpDecomp, r, digits)
		emit(OpModUp, r+k, digits)
		emit(OpNTT, r+k, digits)
		emit(OpModMul, r+k, 4*digits)
		emit(OpModAdd, r+k, 4*digits)
		// Two output polynomials: back to coefficients, divide by P,
		// forward again.
		emit(OpINTT, r+k, 2)
		emit(OpModDown, r, 2)
		emit(OpNTT, r, 2)
	}

	for _, in := range src.Body {
		l := in.Result.Level
		r := l + 1
		switch in.Op {
		case ckksir.OpEncode:
			emit(OpNTT, r, 1)
		case ckksir.OpAdd:
			emit(OpModAdd, r, 2)
		case ckksir.OpAddPlain:
			emit(OpModAdd, r, 1)
		case ckksir.OpMulPlain, ckksir.OpMulConst:
			emit(OpModMul, r, 2)
		case ckksir.OpMul:
			emit(OpModMul, r, 4)
			emit(OpModAdd, r, 1)
		case ckksir.OpRelin:
			keySwitch(l)
			emit(OpModAdd, r, 2)
		case ckksir.OpRotate:
			emit(OpRotate, r, 2)
			keySwitch(l)
			emit(OpModAdd, r, 1)
		case ckksir.OpRescale:
			emit(OpRescale, r, 2)
		case ckksir.OpModSwitch, ckksir.OpReinterpret:
			// Dropping RNS rows / re-declaring scale is free.
		case ckksir.OpPoly:
			p, err := poly.FromAttrs(in.Attrs)
			if err != nil {
				return nil, fmt.Errorf("polyir: %s: %w", in.Op, err)
			}
			expandPolyEval(emit, keySwitch, poly.NewPlan(p), in.Args[0].Level)
		case ckksir.OpBootstrap:
			expandBootstrap(emit, keySwitch, in, src.Params[0].Type.Len())
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

// expandPolyEval expands the evaluation plan of a polynomial whose input
// sits at the given level, every operation at the level the plan puts it.
func expandPolyEval(emit func(string, int, int), keySwitch func(int), pl *poly.Plan, level int) {
	pl.Walk(func(s poly.Step, depth int) {
		l := level - depth
		r := l + 1
		switch s {
		case poly.StepMul:
			emit(OpModMul, r, 4)
			emit(OpModAdd, r, 1)
		case poly.StepRelin:
			keySwitch(l)
			emit(OpModAdd, r, 2)
		case poly.StepRescale:
			emit(OpRescale, r, 2)
		case poly.StepMulConst:
			emit(OpModMul, r, 2)
		case poly.StepAdd:
			emit(OpModAdd, r, 2)
		}
	})
}

// expandBootstrap models the circuit: two dense linear transforms over
// the slot space (BSGS rotations plus diagonal multiplications), the
// EvalMod polynomial and the double-angle squarings.
func expandBootstrap(emit func(string, int, int), keySwitch func(int), in *ir.Instr, slots int) {
	target := in.AttrInt("target", 1)
	// Conservative model at the raised level.
	l := target + 10
	n1 := 1
	for n1*n1 < slots {
		n1 <<= 1
	}
	rotations := n1 + slots/n1
	for _, phase := range []int{l, target + 2} { // C2S then S2C
		for i := 0; i < rotations; i++ {
			emit(OpRotate, phase+1, 2)
			keySwitch(phase)
		}
		emit(OpModMul, phase+1, 2*slots/8) // sparse-diagonal estimate
		emit(OpRescale, phase+1, 2)
	}
	// EvalMod: the default cosine's plan + 3 double angles on two halves.
	evalMod := bootstrap.EvalModPlan(bootstrap.Parameters{})
	for half := 0; half < 2; half++ {
		expandPolyEval(emit, keySwitch, evalMod, l-2)
		for i := 0; i < 3; i++ {
			emit(OpModMul, target+6, 4)
			keySwitch(target + 5)
			emit(OpRescale, target+6, 2)
		}
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
			s.KeySwitches++ // two ModDowns per switch; adjusted below
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

// LowerFromCKKS is a convenience wrapper deriving alpha/k from the
// compiled literal.
func LowerFromCKKS(res *ckksir.Result) (*ir.Module, error) {
	alpha := len(res.Literal.LogP)
	mod, err := Lower(res.Module, alpha, alpha)
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

// ReluCost is exported for the cost model: the level consumption of a
// stage list (re-exported from sihe to avoid an import cycle there).
func ReluCost(stages [][]float64) int { return sihe.ReLUDepth(stages) }
