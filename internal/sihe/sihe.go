// Package sihe implements the SIHE IR (Scheme-Independent Homomorphic
// Encryption level): VECTOR IR computations are re-typed onto Cipher,
// Plain and Vector values by dataflow type inference, encode operations
// are inserted where cleartext constants meet ciphertexts, and nonlinear
// functions (ReLU) are recognised and replaced by composite polynomial
// approximations — all without committing to a particular FHE scheme.
package sihe

import (
	"fmt"

	"antace/internal/ir"
	"antace/internal/poly"
	"antace/internal/vecir"
)

// Op names.
const (
	OpAdd    = "sihe.add"
	OpSub    = "sihe.sub"
	OpMul    = "sihe.mul"
	OpNeg    = "sihe.neg"
	OpRotate = "sihe.rotate"
	OpEncode = "sihe.encode"
	// OpPoly evaluates one polynomial stage on a ciphertext. Its
	// attributes carry the polynomial (poly.FromAttrs / Attrs).
	OpPoly = "sihe.poly"
	// OpMulConst multiplies a ciphertext by the scalar attribute "c".
	OpMulConst = "sihe.mul_const"
)

func init() {
	C := []ir.Kind{ir.KindCipher}
	CP := []ir.Kind{ir.KindCipher, ir.KindPlain}
	V := []ir.Kind{ir.KindVector}
	ir.RegisterOp(ir.OpSpec{Name: OpAdd, Args: [][]ir.Kind{C, CP}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpSub, Args: [][]ir.Kind{C, CP}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpMul, Args: [][]ir.Kind{C, CP}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpNeg, Args: [][]ir.Kind{C}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpRotate, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"k"}})
	ir.RegisterOp(ir.OpSpec{Name: OpEncode, Args: [][]ir.Kind{V}, Result: ir.KindPlain})
	ir.RegisterOp(ir.OpSpec{Name: OpPoly, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"coeffs"}})
	ir.RegisterOp(ir.OpSpec{Name: OpMulConst, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"c"}})
}

// Options configures the nonlinear approximation.
type Options struct {
	// ReLUAlpha is the target precision (bits) of the sign composite.
	ReLUAlpha int
	// ReLUEps is the relative half-width of the gap around zero where
	// the sign approximation is unconstrained.
	ReLUEps float64
	// SmoothDegree is the Chebyshev degree used for smooth
	// nonlinearities (sigmoid, tanh). Default 23.
	SmoothDegree int
}

func (o Options) withDefaults() Options {
	if o.ReLUAlpha == 0 {
		o.ReLUAlpha = 7
	}
	if o.ReLUEps == 0 {
		o.ReLUEps = 1.0 / 32
	}
	if o.SmoothDegree == 0 {
		o.SmoothDegree = 23
	}
	return o
}

// ReLUStages builds the composite polynomial program for
// relu(x) = x * h(y), y = x/bound, h = 0.5 + 0.5*sign(y): the stages are
// evaluated on the explicitly normalised y (the normalisation is a
// separate constant multiplication so power-basis values stay in
// [-1,1]); the last stage absorbs the affine 0.5(1+s) map. Stages are in
// monomial basis.
func ReLUStages(bound float64, opts Options) ([][]float64, error) {
	opts = opts.withDefaults()
	stages, err := poly.SignComposite(opts.ReLUEps, opts.ReLUAlpha)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(stages))
	for i, st := range stages {
		out[i] = append([]float64(nil), st.Coeffs...)
	}
	// Fold h = 0.5 + 0.5*s into the last stage.
	last := out[len(out)-1]
	for i := range last {
		last[i] *= 0.5
	}
	last[0] += 0.5
	return out, nil
}

// ReLUDepth returns the multiplicative depth the CKKS backend consumes
// for a ReLU lowered with the given stages: the input normalisation,
// the stages, and the final ciphertext-ciphertext product.
func ReLUDepth(stages [][]float64) int {
	d := 1 // normalisation x/bound
	for _, coeffs := range stages {
		d += StageDepth(&poly.Polynomial{Coeffs: coeffs})
	}
	return d + 1
}

// StageDepth returns the level consumption of a sihe.poly/ckks.poly
// instruction: the depth of the plan the runtime evaluates it by.
func StageDepth(p *poly.Polynomial) int { return poly.NewPlan(p).Depth() }

// Lower re-types a VECTOR IR module into SIHE, inserting encode ops and
// expanding vec.relu into its polynomial program.
func Lower(vm *ir.Module, opts Options) (*ir.Module, error) {
	opts = opts.withDefaults()
	src := vm.Main()
	if src == nil {
		return nil, fmt.Errorf("sihe: empty module")
	}
	n := src.Params[0].Type.Len()
	ct := ir.CipherType(n)
	pt := ir.PlainType(n)
	vt := ir.VectorType(n)

	mod := ir.NewModule(vm.Name)
	for k, v := range vm.Attrs {
		mod.Attrs[k] = v
	}
	f := mod.NewFunc(src.Name)
	vals := map[*ir.Value]*ir.Value{src.Params[0]: f.NewParam(src.Params[0].Name, ct)}

	// encodeCache interns the Plain version of each Vector constant.
	encodeCache := map[*ir.Value]*ir.Value{}
	asPlain := func(v *ir.Value) *ir.Value {
		if p, ok := encodeCache[v]; ok {
			return p
		}
		cv := f.NewConst(v.Name, vt, v.Const)
		p := f.Emit(OpEncode, pt, []*ir.Value{cv}, nil)
		encodeCache[v] = p
		return p
	}
	// arg maps a VECTOR value to its SIHE counterpart; constants become
	// encoded plaintexts.
	arg := func(v *ir.Value) (*ir.Value, error) {
		if v.IsConst() {
			return asPlain(v), nil
		}
		s, ok := vals[v]
		if !ok {
			return nil, fmt.Errorf("sihe: value %s not lowered", v)
		}
		return s, nil
	}

	for _, in := range src.Body {
		switch in.Op {
		case vecir.OpAdd, vecir.OpMul:
			op := OpAdd
			if in.Op == vecir.OpMul {
				op = OpMul
			}
			a, err := arg(in.Args[0])
			if err != nil {
				return nil, err
			}
			b, err := arg(in.Args[1])
			if err != nil {
				return nil, err
			}
			// Homomorphic ops put the ciphertext first.
			if a.Type.Kind == ir.KindPlain && b.Type.Kind == ir.KindCipher {
				a, b = b, a
			}
			if a.Type.Kind != ir.KindCipher {
				return nil, fmt.Errorf("sihe: %s between two cleartext values should have been folded", in.Op)
			}
			vals[in.Result] = f.Emit(op, ct, []*ir.Value{a, b}, nil)
		case vecir.OpRoll:
			a, err := arg(in.Args[0])
			if err != nil {
				return nil, err
			}
			vals[in.Result] = f.Emit(OpRotate, ct, []*ir.Value{a}, map[string]any{"k": in.AttrInt("k", 0)})
		case vecir.OpRelu:
			a, err := arg(in.Args[0])
			if err != nil {
				return nil, err
			}
			bound := in.AttrFloat("bound", 40)
			stages, err := ReLUStages(bound, opts)
			if err != nil {
				return nil, err
			}
			// y = x / bound keeps the polynomial power basis within
			// [-1,1]; the final product restores the magnitude. The
			// relu_* attributes let the CKKS lowering place bootstraps at
			// the normalisation point and coordinate the exact scale of
			// the final product.
			h := f.Emit(OpMulConst, ct, []*ir.Value{a}, map[string]any{"c": 1 / bound, "relu_norm": true, "bound": bound})
			for i, coeffs := range stages {
				attrs := (&poly.Polynomial{Coeffs: coeffs}).Attrs()
				if i == len(stages)-1 {
					attrs["relu_last"] = true
				}
				h = f.Emit(OpPoly, ct, []*ir.Value{h}, attrs)
			}
			vals[in.Result] = f.Emit(OpMul, ct, []*ir.Value{a, h}, map[string]any{"relu_final": true})
		case vecir.OpNonlinear:
			a, err := arg(in.Args[0])
			if err != nil {
				return nil, err
			}
			bound := in.AttrFloat("bound", 8)
			kind, _ := in.Attrs["kind"].(string)
			var p *poly.Polynomial
			switch kind {
			case "tanh":
				p = poly.Tanh(-bound, bound, opts.SmoothDegree)
			case "sigmoid":
				p = poly.Sigmoid(-bound, bound, opts.SmoothDegree)
			default:
				return nil, fmt.Errorf("sihe: unknown nonlinearity %q", kind)
			}
			vals[in.Result] = f.Emit(OpPoly, ct, []*ir.Value{a}, p.Attrs())
		default:
			return nil, fmt.Errorf("sihe: cannot lower %q", in.Op)
		}
	}
	ret, ok := vals[src.Ret]
	if !ok {
		return nil, fmt.Errorf("sihe: return value not lowered")
	}
	f.Ret = ret
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return mod, nil
}

// Kernels is the SIHE dialect's op table over the shared slot kernels
// (ciphers and plains are both cleartext slot vectors).
var Kernels = map[string]ir.SlotKernel{
	OpAdd:      ir.SlotAdd,
	OpSub:      ir.SlotSub,
	OpMul:      ir.SlotMul,
	OpNeg:      ir.SlotNeg,
	OpRotate:   ir.SlotRotate,
	OpEncode:   ir.SlotIdentity,
	OpMulConst: ir.SlotScale("c"),
	OpPoly:     ir.SlotPoly,
}

// Run executes a SIHE function on cleartext data, faithfully applying the
// polynomial approximations: it predicts what the encrypted execution
// computes, up to CKKS noise.
func Run(f *ir.Func, input []float64) ([]float64, error) {
	out, err := ir.RunSlots(f, input, Kernels, nil)
	if err != nil {
		return nil, fmt.Errorf("sihe: %w", err)
	}
	return out, nil
}
