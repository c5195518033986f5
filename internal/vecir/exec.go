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
	OpAdd:  ir.SlotAdd,
	OpMul:  ir.SlotMul,
	OpRoll: ir.SlotRotate,
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

// Analyze computes Stats for a function.
func Analyze(f *ir.Func) Stats {
	s := Stats{}
	rot := map[int]bool{}
	for _, in := range f.Body {
		switch in.Op {
		case OpRoll:
			s.Rotations++
			rot[in.AttrInt("k", 0)] = true
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
