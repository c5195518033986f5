package vecir

import (
	"fmt"
	"math"

	"antace/internal/ir"
)

// Kernels is the VECTOR dialect's op table over the shared slot kernels.
// vec.relu and vec.nonlinear are still exact here: their polynomial
// approximations only appear at the SIHE level.
var Kernels = map[string]ir.SlotKernel{
	OpAdd:    ir.SlotAdd,
	OpMul:    ir.SlotMul,
	OpRoll:   ir.SlotRotate,
	OpLinear: ir.SlotLinear,
	OpRelu: func(_ *ir.Instr, a [][]float64) ([]float64, error) {
		return ir.SlotMap(a[0], func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		}), nil
	},
	OpNonlinear: func(in *ir.Instr, a [][]float64) ([]float64, error) {
		switch kind, _ := in.Attrs["kind"].(string); kind {
		case "tanh":
			return ir.SlotMap(a[0], math.Tanh), nil
		case "sigmoid":
			return ir.SlotMap(a[0], func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }), nil
		default:
			return nil, fmt.Errorf("unknown nonlinearity %q", kind)
		}
	},
}

// Run executes a VECTOR IR function on a cleartext slot vector. This is
// the paper's VECTOR-level instrumentation mode: it validates the layout
// and rotation program against the NN reference without any encryption.
func Run(f *ir.Func, input []float64) ([]float64, error) {
	out, err := ir.RunSlots(f, input, Kernels, nil)
	if err != nil {
		return nil, fmt.Errorf("vecir: %w", err)
	}
	return out, nil
}

// Stats summarises the homomorphic cost drivers of a VECTOR IR function.
type Stats struct {
	Rotations int
	Mults     int
	Adds      int
	ReLUs     int
	// DistinctRotations counts unique rotation amounts (= Galois keys
	// needed, the paper's key-generation analysis).
	DistinctRotations int
}

// Analyze computes Stats for a function. A vec.linear counts as the
// rotations, products and sums it stands for: its distinct non-zero
// babies and giants, one product per mask and one sum per mask after the
// first.
func Analyze(f *ir.Func) Stats {
	s := Stats{}
	rot := map[int]bool{}
	for _, in := range f.Body {
		switch in.Op {
		case OpRoll:
			s.Rotations++
			rot[in.AttrInt("k", 0)] = true
		case OpLinear:
			for _, attr := range []string{"b", "g"} {
				seen := map[int]bool{0: true}
				for _, k := range in.AttrInts(attr) {
					if !seen[k] {
						seen[k] = true
						s.Rotations++
						rot[k] = true
					}
				}
			}
			masks := len(in.Args) - 1
			s.Mults += masks
			s.Adds += masks - 1
		case OpMul:
			s.Mults++
		case OpAdd:
			s.Adds++
		case OpRelu, OpNonlinear:
			s.ReLUs++
		}
	}
	s.DistinctRotations = len(rot)
	return s
}
