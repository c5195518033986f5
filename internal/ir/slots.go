package ir

import (
	"fmt"

	"antace/internal/poly"
)

// SlotKernel computes one instruction of a slot dialect (vec, sihe,
// ckks) on cleartext slot vectors. RunSlots hands every kernel arguments
// of exactly the slot width and a kernel never writes to them, so a
// kernel may index freely and may return an argument unchanged. The
// kernels below are the whole cleartext meaning of the three slot
// dialects; each dialect only maps its op names onto them.
type SlotKernel = func(in *Instr, args [][]float64) ([]float64, error)

// SlotAdd is the elementwise sum of two vectors.
func SlotAdd(_ *Instr, a [][]float64) ([]float64, error) {
	out := make([]float64, len(a[0]))
	for i := range out {
		out[i] = a[0][i] + a[1][i]
	}
	return out, nil
}

// SlotSub is the elementwise difference of two vectors.
func SlotSub(_ *Instr, a [][]float64) ([]float64, error) {
	out := make([]float64, len(a[0]))
	for i := range out {
		out[i] = a[0][i] - a[1][i]
	}
	return out, nil
}

// SlotMul is the elementwise product of two vectors.
func SlotMul(_ *Instr, a [][]float64) ([]float64, error) {
	out := make([]float64, len(a[0]))
	for i := range out {
		out[i] = a[0][i] * a[1][i]
	}
	return out, nil
}

// SlotNeg negates every slot.
func SlotNeg(_ *Instr, a [][]float64) ([]float64, error) {
	return SlotMap(a[0], func(x float64) float64 { return -x }), nil
}

// SlotIdentity passes the slots through: encoding a constant (already
// zero-extended by RunSlots) and the level, scale and refresh
// bookkeeping of CKKS leave the ideal slot values unchanged.
func SlotIdentity(_ *Instr, a [][]float64) ([]float64, error) { return a[0], nil }

// SlotRotate is the cyclic left rotation by attribute "k": out[i] =
// in[(i+k) mod n], for any sign and size of k.
func SlotRotate(in *Instr, a [][]float64) ([]float64, error) {
	n := len(a[0])
	k := in.AttrInt("k", 0) % n
	if k < 0 {
		k += n
	}
	out := make([]float64, n)
	copy(out, a[0][k:])
	copy(out[n-k:], a[0][:k])
	return out, nil
}

// SlotScale returns the kernel multiplying every slot by the float
// attribute attr (default 1).
func SlotScale(attr string) SlotKernel {
	return func(in *Instr, a [][]float64) ([]float64, error) {
		c := in.AttrFloat(attr, 1)
		return SlotMap(a[0], func(x float64) float64 { return x * c }), nil
	}
}

// SlotPoly evaluates the instruction's polynomial on every slot.
func SlotPoly(in *Instr, a [][]float64) ([]float64, error) {
	p, err := poly.FromAttrs(in.Attrs)
	if err != nil {
		return nil, err
	}
	return SlotMap(a[0], p.Eval), nil
}

// SlotMap applies fn to every slot of x.
func SlotMap(x []float64, fn func(float64) float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = fn(v)
	}
	return out
}

// RunSlots evaluates a one-parameter slot-dialect function on a
// cleartext input of the parameter's width, through Eval, with the
// dialect's op table. Vector constants are zero-extended to the slot
// width, the way the CKKS encoder pads a short vector.
func RunSlots(f *Func, input []float64, kernels map[string]SlotKernel,
	observe func(*Instr, [][]float64, []float64)) ([]float64, error) {
	if len(f.Params) != 1 {
		return nil, fmt.Errorf("%s: slot evaluation expects one parameter, have %d", f.Name, len(f.Params))
	}
	n := f.Params[0].Type.Len()
	if n == 0 || len(input) != n {
		return nil, fmt.Errorf("%s: input length %d, want %d", f.Name, len(input), n)
	}
	konst := func(v *Value) ([]float64, error) {
		c, ok := v.Const.([]float64)
		if !ok || len(c) > n {
			return nil, fmt.Errorf("constant %s is not a vector of at most %d slots", v, n)
		}
		if len(c) == n {
			return c, nil
		}
		out := make([]float64, n)
		copy(out, c)
		return out, nil
	}
	step := func(in *Instr, args [][]float64) ([]float64, error) {
		k, ok := kernels[in.Op]
		if !ok {
			return nil, fmt.Errorf("unknown op")
		}
		return k(in, args)
	}
	return Eval(f, [][]float64{input}, konst, step, observe)
}
