package nnir

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"antace/internal/ir"
	"antace/internal/tensor"
)

// CalibrateReLUBounds runs the network on `samples` random inputs drawn
// uniformly from [-1,1] and attaches a "bound" attribute to every
// nn.relu instruction: headroom times the largest |input| observed. The
// SIHE lowering uses the bound to scale its sign approximation, and the
// bootstrap normalisation relies on it to keep values within the
// refreshable range.
func CalibrateReLUBounds(f *ir.Func, samples int, headroom float64, seed uint64) error {
	if len(f.Params) != 1 {
		return fmt.Errorf("nnir: calibration of %d inputs, want 1", len(f.Params))
	}
	c := newCalibration(f)
	rng := rand.New(rand.NewPCG(seed, 0xCA11B))
	inShape := f.Params[0].Type.Shape
	for s := 0; s < samples; s++ {
		x := tensor.New(inShape...)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		if err := c.run(x); err != nil {
			return fmt.Errorf("nnir: %w", err)
		}
	}
	for i, in := range f.Body {
		m := c.maxes[i]
		if m == 0 { // no input ever left zero (or not a nonlinear op)
			continue
		}
		bound := m * headroom
		if bound < 1 {
			bound = 1
		}
		// Round up to limit the number of distinct sign composites.
		bound = math.Exp2(math.Ceil(math.Log2(bound)))
		if in.Attrs == nil {
			in.Attrs = map[string]any{}
		}
		in.Attrs["bound"] = bound
	}
	return nil
}

// calibration evaluates f for CalibrateReLUBounds, which keeps only the
// largest |input| of each nonlinear op (maxes, by body index). A tensor
// is released after its last reader, and its buffer reused by a later
// convolution, ReLU or addition of the same size; a ReLU or an addition
// writes into an argument that dies with it. Every other op runs through
// step, which may return a view of its argument (flatten, reshape), so
// its arguments and result are left to the garbage collector.
type calibration struct {
	f     *ir.Func
	last  ir.Values[int] // body index of each value's last reader
	env   ir.Values[*tensor.Tensor]
	owned ir.Values[bool] // the value's buffer is the evaluator's alone
	free  map[int][][]float64
	maxes []float64
}

func newCalibration(f *ir.Func) *calibration {
	c := &calibration{
		f:     f,
		last:  ir.NewValues[int](f),
		env:   ir.NewValues[*tensor.Tensor](f),
		owned: ir.NewValues[bool](f),
		free:  map[int][][]float64{},
		maxes: make([]float64, len(f.Body)),
	}
	for i, in := range f.Body {
		for _, a := range in.Args {
			c.last.Set(a, i)
		}
	}
	if f.Ret != nil {
		c.last.Set(f.Ret, len(f.Body)) // read after the body
	}
	return c
}

// buf returns a buffer of n float64s, reused if one was released.
func (c *calibration) buf(n int) []float64 {
	if l := c.free[n]; len(l) > 0 {
		b := l[len(l)-1]
		c.free[n] = l[:len(l)-1]
		return b
	}
	return make([]float64, n)
}

// dying reports whether in, at body index i, is the last reader of the
// evaluator-owned value v.
func (c *calibration) dying(v *ir.Value, i int) bool {
	return !v.IsConst() && c.owned.Get(v) && c.last.Get(v) == i
}

func (c *calibration) run(x *tensor.Tensor) error {
	f := c.f
	c.env.Set(f.Params[0], x)
	c.owned.Set(f.Params[0], false)
	args := make([]*tensor.Tensor, 0, 3)
	for i, in := range f.Body {
		args = args[:0]
		for _, a := range in.Args {
			var t *tensor.Tensor
			if a.IsConst() {
				t, _ = a.Const.(*tensor.Tensor)
			} else {
				t = c.env.Get(a)
			}
			if t == nil {
				return fmt.Errorf("instr %d (%s): argument %s not computed", i, in.Op, a)
			}
			args = append(args, t)
		}
		if in.Op == OpRelu || in.Op == OpSigmoid || in.Op == OpTanh {
			m := c.maxes[i]
			for _, v := range args[0].Data {
				if a := math.Abs(v); a > m {
					m = a
				}
			}
			c.maxes[i] = m
		}
		out, owned, err := c.step(i, in, args)
		if err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, in.Op, err)
		}
		c.env.Set(in.Result, out)
		c.owned.Set(in.Result, owned)
		for _, a := range in.Args {
			switch {
			case a.IsConst():
			case !owned:
				c.owned.Set(a, false) // out may be a view of it
			case c.dying(a, i):
				t := c.env.Get(a)
				c.free[len(t.Data)] = append(c.free[len(t.Data)], t.Data)
				c.owned.Set(a, false)
				c.env.Set(a, nil)
			}
		}
	}
	if f.Ret == nil || c.env.Get(f.Ret) == nil {
		return fmt.Errorf("return value not computed")
	}
	return nil
}

// step computes instruction i and reports whether its result's buffer is
// the evaluator's own. An argument it writes into stops being owned, so
// the release after the instruction passes it over.
func (c *calibration) step(i int, in *ir.Instr, args []*tensor.Tensor) (*tensor.Tensor, bool, error) {
	switch in.Op {
	case OpConv:
		var bias *tensor.Tensor
		if len(args) == 3 {
			bias = args[2]
		}
		out, err := tensor.Conv2DInto(c.buf, args[0], args[1], bias, in.AttrInt("stride", 1), in.AttrInt("pad", 0))
		return out, err == nil, err
	case OpRelu:
		x := args[0]
		if c.dying(in.Args[0], i) {
			c.owned.Set(in.Args[0], false)
			for j, v := range x.Data {
				if v < 0 {
					x.Data[j] = 0
				}
			}
			return x, true, nil
		}
		out := tensor.FromData(c.buf(len(x.Data)), x.Shape...)
		for j, v := range x.Data {
			if v < 0 {
				v = 0
			}
			out.Data[j] = v
		}
		return out, true, nil
	case OpAdd:
		a, b := args[0], args[1]
		if !slices.Equal(a.Shape, b.Shape) {
			return nil, false, fmt.Errorf("tensor: add shape mismatch %v vs %v", a.Shape, b.Shape)
		}
		var out *tensor.Tensor
		switch {
		case c.dying(in.Args[0], i):
			c.owned.Set(in.Args[0], false)
			out = a
		case c.dying(in.Args[1], i):
			c.owned.Set(in.Args[1], false)
			out = tensor.FromData(b.Data, a.Shape...)
		default:
			out = tensor.FromData(c.buf(len(a.Data)), a.Shape...)
		}
		for j, v := range b.Data {
			out.Data[j] = a.Data[j] + v
		}
		return out, true, nil
	}
	out, err := step(in, args)
	return out, false, err
}
