package ckksir

import (
	"cmp"
	"math"
	"slices"

	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/sihe"
)

// LazyRescale hoists rescales out of addition trees: add(rescale(u),
// rescale(v)) becomes rescale(add(u, v)) whenever u and v agree on level
// and scale. On a convolution that sums R rotated/masked products this
// removes R-1 of the R rescales — the paper's "Rescaling Placement"
// optimisation (EVA-style waterline management). Exactness is preserved:
// the tracked levels and scales of all surviving values are unchanged.
func LazyRescale() ir.Pass {
	return ir.FuncPass{PassName: "ckks-lazy-rescale", PassLevel: "CKKS", Fn: func(f *ir.Func) error {
		for iter := 0; iter < 64; iter++ {
			if !lazyRescaleOnce(f) {
				break
			}
		}
		return nil
	}}
}

func lazyRescaleOnce(f *ir.Func) bool {
	uses := ir.Uses(f)
	changed := false
	body := make([]*ir.Instr, 0, len(f.Body))
	for _, in := range f.Body {
		// rotate(rescale(u)) -> rescale(rotate(u)): rotation commutes
		// with rescaling, exposing the add-level merge below.
		if in.Op == OpRotate {
			a := in.Args[0]
			if a.Def != nil && a.Def.Op == OpRescale && uses.Get(a) == 1 && a.Type.Kind == ir.KindCipher {
				u := a.Def.Args[0]
				tmp := f.NewValue("", in.Result.Type)
				tmp.Level, tmp.Scale = u.Level, u.Scale
				rotIn := &ir.Instr{Op: OpRotate, Args: []*ir.Value{u}, Attrs: in.Attrs, Result: tmp}
				tmp.Def = rotIn
				rsIn := &ir.Instr{Op: OpRescale, Args: []*ir.Value{tmp}, Result: in.Result}
				in.Result.Def = rsIn
				body = append(body, rotIn, rsIn)
				changed = true
				continue
			}
		}
		if in.Op != OpAdd {
			body = append(body, in)
			continue
		}
		a, b := in.Args[0], in.Args[1]
		if a.Def == nil || b.Def == nil || a.Def.Op != OpRescale || b.Def.Op != OpRescale ||
			uses.Get(a) != 1 || uses.Get(b) != 1 {
			body = append(body, in)
			continue
		}
		u, v := a.Def.Args[0], b.Def.Args[0]
		if u.Type.Kind != ir.KindCipher || v.Type.Kind != ir.KindCipher {
			body = append(body, in)
			continue
		}
		if u.Level != v.Level || math.Abs(u.Scale/v.Scale-1) > 1e-9 {
			body = append(body, in)
			continue
		}
		// tmp = add(u, v) at the pre-rescale state; the original result
		// becomes the rescale of tmp (level and scale unchanged).
		tmp := f.NewValue("", in.Result.Type)
		tmp.Level, tmp.Scale = u.Level, u.Scale
		addIn := &ir.Instr{Op: OpAdd, Args: []*ir.Value{u, v}, Result: tmp}
		tmp.Def = addIn
		rsIn := &ir.Instr{Op: OpRescale, Args: []*ir.Value{tmp}, Result: in.Result}
		in.Result.Def = rsIn
		body = append(body, addIn, rsIn)
		changed = true
	}
	f.Body = body
	return changed
}

// CountOps returns a histogram of op mnemonics with the total "level
// weight" (sum over instructions of level+1, a proxy for RNS work).
func CountOps(f *ir.Func) (count map[string]int, levelWeight map[string]int) {
	count = map[string]int{}
	levelWeight = map[string]int{}
	for _, in := range f.Body {
		count[in.Op]++
		levelWeight[in.Op] += in.Result.Level + 1
	}
	return count, levelWeight
}

// RotationKey is one Galois key a program's rotations need: the slot
// offset K, and the highest level any rotation by K reads its source at.
// A key needs switching-key digits only up to Level (the data-flow key
// analysis behind Figure 7).
type RotationKey struct {
	K, Level int
}

// RotationKeys is the one rule that decides a program's rotation keys:
// one per distinct offset a ckks.rotate or ckks.linear rotates by in f,
// in ascending order of offset, at the highest level it rotates at (a
// linear layer's babies and giants rotate at its input's). Run it on the
// function that executes — after every pass, and after a lane transform
// — since both change offsets and levels. On a SIHE function, which has
// no levels yet, it counts the keys the lowered program will need.
func RotationKeys(f *ir.Func) []RotationKey {
	level := map[int]int{}
	use := func(k, l int) { level[k] = max(level[k], l) }
	for _, in := range f.Body {
		switch in.Op {
		case OpRotate, sihe.OpRotate:
			use(in.AttrInt("k", 0), in.Args[0].Level)
		case OpLinear, sihe.OpLinear:
			for _, ks := range [][]int{in.AttrInts("b"), in.AttrInts("g")} {
				for _, k := range ks {
					if k != 0 {
						use(k, in.Args[0].Level)
					}
				}
			}
		}
	}
	keys := make([]RotationKey, 0, len(level))
	for k, l := range level {
		keys = append(keys, RotationKey{K: k, Level: l})
	}
	slices.SortFunc(keys, func(a, b RotationKey) int { return cmp.Compare(a.K, b.K) })
	return keys
}

// LinearSplit is the shape of a ckks.linear's kernel, for pricing: its
// distinct non-zero babies and giants and its masks (and those against
// the b = 0 baby).
func LinearSplit(in *ir.Instr) kswork.Split {
	b, g := in.AttrInts("b"), in.AttrInts("g")
	s := kswork.Split{Masks: len(b)}
	babies, giants := map[int]bool{0: true}, map[int]bool{0: true}
	for i := range b {
		if b[i] == 0 {
			s.ZeroMasks++
		}
		babies[b[i]], giants[g[i]] = true, true
	}
	s.Babies, s.Giants = len(babies)-1, len(giants)-1
	return s
}
