package nnir

import (
	"math"
	"math/rand/v2"

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
	if headroom <= 1 {
		headroom = 1.5
	}
	if samples <= 0 {
		samples = 4
	}
	maxes := map[*ir.Instr]float64{}
	rng := rand.New(rand.NewPCG(seed, 0xCA11B))
	inShape := f.Params[0].Type.Shape
	for s := 0; s < samples; s++ {
		x := tensor.New(inShape...)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		_, err := RunWithHook(f, map[string]*tensor.Tensor{f.Params[0].Name: x}, func(in *ir.Instr, args []*tensor.Tensor, _ *tensor.Tensor) {
			if in.Op != OpRelu && in.Op != OpSigmoid && in.Op != OpTanh {
				return
			}
			for _, v := range args[0].Data {
				if a := math.Abs(v); a > maxes[in] {
					maxes[in] = a
				}
			}
		})
		if err != nil {
			return err
		}
	}
	for in, m := range maxes {
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
