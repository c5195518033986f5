package nnir

import (
	"fmt"
	"math"

	"antace/internal/ir"
	"antace/internal/tensor"
)

// Run executes an NN IR function on plaintext tensors (the reference
// semantics for all lower IR levels, and the "unencrypted" side of the
// paper's Table 11).
func Run(f *ir.Func, inputs map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	return RunWithHook(f, inputs, nil)
}

// RunWithHook is Run with an observer: hook sees every instruction once,
// in body order, with its argument tensors and its result (the
// cross-level tests compare every layer's output this way).
func RunWithHook(f *ir.Func, inputs map[string]*tensor.Tensor, hook func(*ir.Instr, []*tensor.Tensor, *tensor.Tensor)) (*tensor.Tensor, error) {
	params := make([]*tensor.Tensor, len(f.Params))
	for i, p := range f.Params {
		in, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("nnir: missing input %q", p.Name)
		}
		params[i] = in
	}
	konst := func(v *ir.Value) (*tensor.Tensor, error) {
		t, ok := v.Const.(*tensor.Tensor)
		if !ok {
			return nil, fmt.Errorf("constant %s is not a tensor", v)
		}
		return t, nil
	}
	out, err := ir.Eval(f, params, konst, step, hook)
	if err != nil {
		return nil, fmt.Errorf("nnir: %w", err)
	}
	return out, nil
}

// step computes one NN IR instruction on its resolved argument tensors:
// the cleartext meaning of every nn.* op.
func step(in *ir.Instr, args []*tensor.Tensor) (*tensor.Tensor, error) {
	switch in.Op {
	case OpConv:
		var bias *tensor.Tensor
		if len(args) == 3 {
			bias = args[2]
		}
		return tensor.Conv2D(args[0], args[1], bias, in.AttrInt("stride", 1), in.AttrInt("pad", 0))
	case OpGemm:
		w := args[1]
		if in.AttrInt("transB", 0) == 1 {
			w = w.Transpose()
		}
		var bias *tensor.Tensor
		if len(args) == 3 {
			bias = args[2]
		}
		return tensor.Gemm(args[0], w, bias, 1, 1)
	case OpRelu:
		return tensor.ReLU(args[0]), nil
	case OpSigmoid:
		return tensor.Sigmoid(args[0]), nil
	case OpTanh:
		return tensor.Tanh(args[0]), nil
	case OpAdd:
		return tensor.Add(args[0], args[1])
	case OpBatchNorm:
		return tensor.BatchNorm(args[0], args[1], args[2], args[3], args[4], in.AttrFloat("eps", 1e-5))
	case OpAvgPool:
		return tensor.AveragePool2D(args[0], in.AttrInt("kernel", 1), in.AttrInt("stride", 1))
	case OpGlobalPool:
		return tensor.GlobalAveragePool2D(args[0])
	case OpFlatten:
		return args[0].Flatten(), nil
	case OpReshape:
		return args[0].Reshape(in.AttrInts("shape")...)
	case OpSlice:
		return tensor.StridedSlice(args[0], in.AttrInts("start"), in.AttrInts("size"), in.AttrInts("stride"))
	}
	return nil, fmt.Errorf("unknown op")
}

// FuseConvBatchNorm folds every batch_norm that directly follows a conv
// into the convolution's weights and bias (the NN IR's operator fusion
// from Table 2). It also absorbs standalone batch_norms into an
// equivalent 1x1 depthwise conv-free affine pair is NOT attempted: ONNX
// exports of the supported model families always place BN after conv.
func FuseConvBatchNorm() ir.Pass {
	return ir.FuncPass{PassName: "nn-fuse-conv-bn", PassLevel: "NN", Fn: func(f *ir.Func) error {
		uses := ir.Uses(f)
		replaced := ir.NewValues[*ir.Value](f)
		var kept []*ir.Instr
		for _, in := range f.Body {
			for i, a := range in.Args {
				if r := replaced.Get(a); r != nil {
					in.Args[i] = r
				}
			}
			if in.Op != OpBatchNorm {
				kept = append(kept, in)
				continue
			}
			src := in.Args[0]
			if src.Def == nil || src.Def.Op != OpConv || uses.Get(src) != 1 {
				kept = append(kept, in)
				continue
			}
			conv := src.Def
			w, ok1 := conv.Args[1].Const.(*tensor.Tensor)
			gamma, ok2 := in.Args[1].Const.(*tensor.Tensor)
			beta, ok3 := in.Args[2].Const.(*tensor.Tensor)
			mean, ok4 := in.Args[3].Const.(*tensor.Tensor)
			variance, ok5 := in.Args[4].Const.(*tensor.Tensor)
			if !(ok1 && ok2 && ok3 && ok4 && ok5) {
				kept = append(kept, in)
				continue
			}
			eps := in.AttrFloat("eps", 1e-5)
			cOut := w.Shape[0]
			perOut := w.Size() / cOut
			newW := w.Clone()
			newB := tensor.New(cOut)
			if len(conv.Args) == 3 {
				if old, ok := conv.Args[2].Const.(*tensor.Tensor); ok {
					copy(newB.Data, old.Data)
				}
			}
			for co := 0; co < cOut; co++ {
				scale := gamma.Data[co] / math.Sqrt(variance.Data[co]+eps)
				for i := 0; i < perOut; i++ {
					newW.Data[co*perOut+i] *= scale
				}
				newB.Data[co] = (newB.Data[co]-mean.Data[co])*scale + beta.Data[co]
			}
			wVal := f.NewConst(conv.Args[1].Name+".fused", ir.TensorType(newW.Shape...), newW)
			bVal := f.NewConst(conv.Args[1].Name+".fused_bias", ir.TensorType(cOut), newB)
			fused := &ir.Instr{
				Op:     OpConv,
				Args:   []*ir.Value{conv.Args[0], wVal, bVal},
				Attrs:  conv.Attrs,
				Result: in.Result,
			}
			in.Result.Def = fused
			// Drop the original conv from the kept list (it was appended
			// earlier) and substitute the fused instruction.
			for i := len(kept) - 1; i >= 0; i-- {
				if kept[i] == conv {
					kept = append(kept[:i], kept[i+1:]...)
					break
				}
			}
			kept = append(kept, fused)
			replaced.Set(src, in.Result)
		}
		f.Body = kept
		return nil
	}}
}
