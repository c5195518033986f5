package batch

import (
	"fmt"

	"antace/internal/ckksir"
	"antace/internal/ir"
)

// Transform clones a compiled CKKS module into its batched counterpart
// for the given stride: every ckks.rotate amount k, and every baby and
// giant of a ckks.linear, becomes k·stride, and every ckks.encode
// constant is lane-replicated. All other instructions
// are slotwise, so they are copied unchanged (levels, scales and
// attributes included — the vm's per-instruction level/scale check
// passes on the batched module exactly as on the solo one).
//
// The clone is deterministic: value IDs are assigned in body order, so a
// server that rebuilds the batched module after a restart reproduces it
// bit for bit, which keeps execution checkpoints replayable.
func Transform(mod *ir.Module, stride int) (*ir.Module, error) {
	if stride < 1 {
		return nil, fmt.Errorf("batch: stride %d", stride)
	}
	out := ir.NewModule(mod.Name)
	for k, v := range mod.Attrs {
		out.Attrs[k] = v
	}
	for _, f := range mod.Funcs {
		if err := transformFunc(out, f, stride); err != nil {
			return nil, fmt.Errorf("batch: func %s: %w", f.Name, err)
		}
	}
	return out, nil
}

// scaleType widens a slot-vector type by the stride (cipher<L> becomes
// cipher<L·stride>); scalar and shapeless types pass through.
func scaleType(t ir.Type, stride int) ir.Type {
	switch t.Kind {
	case ir.KindVector, ir.KindPlain, ir.KindCipher, ir.KindCipher3:
		if len(t.Shape) == 1 {
			return ir.Type{Kind: t.Kind, Shape: []int{t.Shape[0] * stride}}
		}
	}
	return t
}

func transformFunc(out *ir.Module, f *ir.Func, stride int) error {
	nf := out.NewFunc(f.Name)
	vmap := ir.NewValues[*ir.Value](f)
	copyMeta := func(dst, src *ir.Value) {
		dst.Level = src.Level
		dst.Scale = src.Scale
	}
	for _, p := range f.Params {
		np := nf.NewParam(p.Name, scaleType(p.Type, stride))
		copyMeta(np, p)
		vmap.Set(p, np)
	}
	mapArg := func(a *ir.Value, replicate bool) (*ir.Value, error) {
		if na := vmap.Get(a); na != nil {
			return na, nil
		}
		if !a.IsConst() {
			return nil, fmt.Errorf("value %s used before definition", a)
		}
		var payload any = a.Const
		if replicate {
			vec, ok := a.Const.([]float64)
			if !ok {
				return nil, fmt.Errorf("encode constant %s is not a vector", a)
			}
			payload = ReplicateLanes(vec, stride)
		}
		na := nf.NewConst(a.Name, scaleType(a.Type, stride), payload)
		copyMeta(na, a)
		vmap.Set(a, na)
		return na, nil
	}
	for _, in := range f.Body {
		args := make([]*ir.Value, len(in.Args))
		for i, a := range in.Args {
			na, err := mapArg(a, in.Op == ckksir.OpEncode && i == 0)
			if err != nil {
				return err
			}
			args[i] = na
		}
		attrs := make(map[string]any, len(in.Attrs))
		for k, v := range in.Attrs {
			attrs[k] = v
		}
		switch in.Op {
		case ckksir.OpRotate:
			attrs["k"] = in.AttrInt("k", 0) * stride
		case ckksir.OpLinear:
			for _, name := range []string{"b", "g"} {
				ks := make([]int, len(in.AttrInts(name)))
				for i, k := range in.AttrInts(name) {
					ks[i] = k * stride
				}
				attrs[name] = ks
			}
		}
		res := nf.Emit(in.Op, scaleType(in.Result.Type, stride), args, attrs)
		copyMeta(res, in.Result)
		res.Name = in.Result.Name
		vmap.Set(in.Result, res)
	}
	ret := vmap.Get(f.Ret)
	if ret == nil {
		return fmt.Errorf("return value never computed")
	}
	nf.Ret = ret
	return nil
}
