package ckksir

import (
	"fmt"

	"antace/internal/bootstrap"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/poly"
)

// Walk expands every instruction of a compiled program into the
// primitives the runtime runs it as (kswork.Geometry.Expand) in geometry
// g, and hands each to emit with the instruction it came from. This is
// the one place a program's levels are translated: an instruction's
// Result.Level is the level it leaves at, which is the level it entered
// at except for a rescale (one above) and for a linear layer or a
// polynomial (their input's, the level the fused kernel and the
// evaluation plan start from). An encode is the forward transform of its
// plaintext's rows, and a bootstrap is the expansion of its schedule,
// op by op.
func Walk(res *Result, g kswork.Geometry, emit func(in *ir.Instr, p kswork.Prim)) error {
	for _, in := range res.Module.Main().Body {
		fwd := func(p kswork.Prim) { emit(in, p) }
		level, split, plan := in.Result.Level, kswork.Split{}, (*poly.Plan)(nil)
		switch in.Op {
		case OpEncode:
			fwd(kswork.Prim{Op: kswork.PolyNTT, Rows: PlainRows(in, g.K), Count: 1})
			continue
		case OpBootstrap:
			if res.Boot == nil {
				return fmt.Errorf("ckksir: %s in a program compiled without a bootstrap circuit", in.Op)
			}
			for _, op := range bootstrap.Schedule(*res.Boot, g.LogN, in.AttrInt("target", 1)) {
				op.Expand(g, fwd)
			}
			continue
		case OpRescale:
			level++
		case OpLinear:
			level, split = in.Args[0].Level, LinearSplit(in)
		case OpPoly:
			p, err := poly.FromAttrs(in.Attrs)
			if err != nil {
				return fmt.Errorf("ckksir: %s: %w", in.Op, err)
			}
			level, plan = in.Args[0].Level, poly.NewPlan(p)
		}
		if !g.Expand(in.Op, level, split, plan, fwd) {
			return fmt.Errorf("ckksir: cannot expand %q", in.Op)
		}
	}
	return nil
}

// PlainRows returns the rows an encode instruction's plaintext has in a
// geometry of k special primes: its level's, and the special primes' for
// a linear layer's mask against a non-zero baby.
func PlainRows(in *ir.Instr, k int) int {
	rows := in.AttrInt("level", 0) + 1
	if in.Attr("qp") == true {
		rows += k
	}
	return rows
}
