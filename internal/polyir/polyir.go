// Package polyir implements the POLY IR: every CKKS operation is
// decomposed into the RNS-polynomial primitives the runtime library (or
// a future hardware accelerator) executes — NTTs, per-modulus
// element-wise loops, automorphisms and the fused key-switching kernels —
// annotated with their residue counts. Lower emits the expansion every
// reader of a program shares (kswork.Geometry.Expand, walked by
// ckksir.Walk, bootstraps op by op of their schedule), so a POLY module
// holds exactly the primitives the cost model prices. Two optimisation
// passes mirror the paper's POLY-level techniques: operator fusion, which
// joins the decomp and mod_up that Lower shows a decomp_modup call as
// back into that kernel, and RNS loop fusion, which merges adjacent
// element-wise loops with identical trip counts to cut memory traffic. The POLY module is an analysis view of the compiled program:
// Figure 5 times its lowering and Analyze summarises it; nothing
// executes it.
package polyir

import (
	"fmt"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
)

// OpFusedLoop is a loop-fused element-wise block (FuseRNSLoops).
const OpFusedLoop = "poly.fused_eltwise"

func init() {
	P := []ir.Kind{ir.KindPoly}
	for _, name := range []string{kswork.PolyNTT, kswork.PolyINTT, kswork.PolyModAdd, kswork.PolyModMul, kswork.PolyModMulAdd,
		kswork.PolyAutomorphism, kswork.PolyDecomp, kswork.PolyModUp, kswork.PolyDecompModUp, kswork.PolyModDown, kswork.PolyMaskSum, OpFusedLoop} {
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
	mod := ir.NewModule(cm.Name)
	for key, v := range cm.Attrs {
		mod.Attrs[key] = v
	}
	f := mod.NewFunc(src.Name)
	pt := ir.Type{Kind: ir.KindPoly, Shape: []int{1}}
	cur := f.NewParam("ct", pt)
	emit := func(op string, rns, count int) {
		cur = f.Emit(op, pt, []*ir.Value{cur}, map[string]any{"rns": rns, "count": count})
	}
	g := res.Literal.Geometry()
	err := ckksir.Walk(res, g, func(_ *ir.Instr, p kswork.Prim) {
		if p.Op == kswork.PolyDecompModUp {
			// The digits decomposed over Q, then extended to Q∪P.
			emit(kswork.PolyDecomp, p.Rows-g.K, p.Count)
			emit(kswork.PolyModUp, p.Rows, p.Count)
			return
		}
		emit(p.Op, p.Rows, p.Count)
	})
	if err != nil {
		return nil, fmt.Errorf("polyir: %w", err)
	}
	f.Ret = cur
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return mod, nil
}

// Stats summarises a POLY module.
type Stats struct {
	Loops      int // element-wise loop launches
	FusedLoops int
	NTTs       int // weighted by residue count
	ModMuls    int // weighted by residue count
}

// Analyze computes stats (NTT/ModMul totals weighted by rns count).
func Analyze(f *ir.Func) Stats {
	s := Stats{}
	for _, in := range f.Body {
		rns := in.AttrInt("rns", 1)
		count := in.AttrInt("count", 1)
		switch in.Op {
		case kswork.PolyNTT, kswork.PolyINTT:
			s.NTTs += rns * count
			s.Loops += count
		case kswork.PolyModMul, kswork.PolyModMulAdd, kswork.PolyMaskSum:
			s.ModMuls += rns * count
			s.Loops += count
		case kswork.PolyModAdd, kswork.PolyAutomorphism, kswork.PolyDecomp, kswork.PolyModUp, kswork.PolyDecompModUp, kswork.PolyModDown:
			s.Loops += count
		case OpFusedLoop:
			s.FusedLoops += count
			s.Loops += count
			s.ModMuls += rns * in.AttrInt("ops", count)
		}
	}
	return s
}

// FuseOperators joins every decomp followed by a mod_up of the same call
// count into one decomp_modup — the paper's POLY operator fusion, which
// the runtime exposes as a fused library kernel.
func FuseOperators() ir.Pass {
	return ir.FuncPass{PassName: "poly-operator-fusion", PassLevel: "POLY", Fn: func(f *ir.Func) error {
		var body []*ir.Instr
		for i := 0; i < len(f.Body); i++ {
			in := f.Body[i]
			if i+1 < len(f.Body) {
				next := f.Body[i+1]
				if in.Op == kswork.PolyDecomp && next.Op == kswork.PolyModUp && in.AttrInt("count", 0) == next.AttrInt("count", 0) {
					in = &ir.Instr{Op: kswork.PolyDecompModUp, Args: in.Args, Attrs: next.Attrs, Result: next.Result}
					next.Result.Def = in
					i++
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
	eltwise := map[string]bool{kswork.PolyModAdd: true, kswork.PolyModMul: true, kswork.PolyModMulAdd: true}
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
