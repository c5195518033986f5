package main

import (
	"fmt"
	"math"

	"antace/internal/onnx"
	"antace/internal/tensor"
)

// refRun evaluates an ONNX model on one input in float64 with exact
// operators (true ReLU, no approximation). It is the answer every
// decrypted output is compared with, so it shares no code with the
// compiler: it walks the ONNX graph directly and uses internal/tensor
// only as a container, never its operators.
func refRun(m *onnx.Model, input *tensor.Tensor) (*tensor.Tensor, error) {
	g := m.Graph
	if len(g.Inputs) != 1 || len(g.Outputs) != 1 {
		return nil, fmt.Errorf("ref: want one input and one output, have %d and %d", len(g.Inputs), len(g.Outputs))
	}
	vals := map[string]*tensor.Tensor{g.Inputs[0].Name: input}
	for _, init := range g.Initializers {
		t, err := init.ToTensor()
		if err != nil {
			return nil, fmt.Errorf("ref: initializer %s: %w", init.Name, err)
		}
		vals[init.Name] = t
	}
	for _, n := range g.Nodes {
		args := make([]*tensor.Tensor, len(n.Inputs))
		for i, name := range n.Inputs {
			t, ok := vals[name]
			if !ok {
				return nil, fmt.Errorf("ref: %s reads undefined value %q", n.OpType, name)
			}
			args[i] = t
		}
		out, err := refNode(n, args)
		if err != nil {
			return nil, fmt.Errorf("ref: %s: %w", n.OpType, err)
		}
		vals[n.Outputs[0]] = out
	}
	out, ok := vals[g.Outputs[0].Name]
	if !ok {
		return nil, fmt.Errorf("ref: output %q never computed", g.Outputs[0].Name)
	}
	return out, nil
}

func refNode(n *onnx.Node, a []*tensor.Tensor) (*tensor.Tensor, error) {
	switch n.OpType {
	case "Conv":
		var bias *tensor.Tensor
		if len(a) > 2 {
			bias = a[2]
		}
		stride := int(n.AttrInts("strides", []int64{1, 1})[0])
		pad := int(n.AttrInts("pads", []int64{0, 0, 0, 0})[0])
		return refConv(a[0], a[1], bias, stride, pad)
	case "Gemm":
		if n.AttrInt("transA", 0) != 0 {
			return nil, fmt.Errorf("transA unsupported")
		}
		var bias *tensor.Tensor
		if len(a) > 2 {
			bias = a[2]
		}
		return refGemm(a[0], a[1], bias, n.AttrInt("transB", 0) != 0, n.AttrFloat("alpha", 1), n.AttrFloat("beta", 1))
	case "Relu":
		out := tensor.New(a[0].Shape...)
		for i, v := range a[0].Data {
			if v > 0 {
				out.Data[i] = v
			}
		}
		return out, nil
	case "Add":
		if len(a[0].Data) != len(a[1].Data) {
			return nil, fmt.Errorf("shapes %v and %v differ", a[0].Shape, a[1].Shape)
		}
		out := tensor.New(a[0].Shape...)
		for i := range out.Data {
			out.Data[i] = a[0].Data[i] + a[1].Data[i]
		}
		return out, nil
	case "BatchNormalization":
		return refBatchNorm(a[0], a[1], a[2], a[3], a[4], n.AttrFloat("epsilon", 1e-5))
	case "AveragePool":
		ks := n.AttrInts("kernel_shape", nil)
		if len(ks) == 0 {
			return nil, fmt.Errorf("missing kernel_shape")
		}
		return refAvgPool(a[0], int(ks[0]), int(n.AttrInts("strides", []int64{1, 1})[0]))
	case "GlobalAveragePool":
		return refAvgPool(a[0], a[0].Shape[2], 1)
	case "Flatten":
		rest := 1
		for _, d := range a[0].Shape[1:] {
			rest *= d
		}
		return tensor.FromData(a[0].Data, a[0].Shape[0], rest), nil
	}
	return nil, fmt.Errorf("unsupported operator")
}

// refConv is a direct NCHW/OIHW convolution with symmetric zero padding.
func refConv(x, w, bias *tensor.Tensor, stride, pad int) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 || x.Shape[1] != w.Shape[1] {
		return nil, fmt.Errorf("input %v does not fit weights %v", x.Shape, w.Shape)
	}
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := (h+2*pad-kh)/stride+1, (wd+2*pad-kw)/stride+1
	out := tensor.New(n, cout, oh, ow)
	for b := 0; b < n; b++ {
		for o := 0; o < cout; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					if bias != nil {
						acc = bias.Data[o]
					}
					for c := 0; c < cin; c++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								acc += x.Data[((b*cin+c)*h+iy)*wd+ix] * w.Data[((o*cin+c)*kh+ky)*kw+kx]
							}
						}
					}
					out.Data[((b*cout+o)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out, nil
}

// refGemm computes alpha·x·W(ᵀ) + beta·bias for a row-major [N,K] x.
func refGemm(x, w, bias *tensor.Tensor, transB bool, alpha, beta float64) (*tensor.Tensor, error) {
	if len(x.Shape) != 2 || len(w.Shape) != 2 {
		return nil, fmt.Errorf("want rank-2 operands, have %v and %v", x.Shape, w.Shape)
	}
	n, k := x.Shape[0], x.Shape[1]
	m, wk := w.Shape[1], w.Shape[0]
	if transB {
		m, wk = w.Shape[0], w.Shape[1]
	}
	if wk != k {
		return nil, fmt.Errorf("inner dimensions %d and %d differ", k, wk)
	}
	out := tensor.New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var acc float64
			for l := 0; l < k; l++ {
				if transB {
					acc += x.Data[i*k+l] * w.Data[j*k+l]
				} else {
					acc += x.Data[i*k+l] * w.Data[l*m+j]
				}
			}
			acc *= alpha
			if bias != nil {
				acc += beta * bias.Data[j%len(bias.Data)]
			}
			out.Data[i*m+j] = acc
		}
	}
	return out, nil
}

func refBatchNorm(x, gamma, beta, mean, variance *tensor.Tensor, eps float64) (*tensor.Tensor, error) {
	if len(x.Shape) < 2 || len(gamma.Data) != x.Shape[1] {
		return nil, fmt.Errorf("input %v does not fit %d channels", x.Shape, len(gamma.Data))
	}
	ch := x.Shape[1]
	inner := len(x.Data) / (x.Shape[0] * ch)
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		c := (i / inner) % ch
		out.Data[i] = gamma.Data[c]*(v-mean.Data[c])/math.Sqrt(variance.Data[c]+eps) + beta.Data[c]
	}
	return out, nil
}

// refAvgPool averages k×k windows without padding; GlobalAveragePool is
// the k = H case.
func refAvgPool(x *tensor.Tensor, k, stride int) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 || k <= 0 || k > x.Shape[2] || k > x.Shape[3] {
		return nil, fmt.Errorf("kernel %d does not fit input %v", k, x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := (h-k)/stride+1, (w-k)/stride+1
	out := tensor.New(n, c, oh, ow)
	for p := 0; p < n*c; p++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float64
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						acc += x.Data[(p*h+oy*stride+ky)*w+ox*stride+kx]
					}
				}
				out.Data[(p*oh+oy)*ow+ox] = acc / float64(k*k)
			}
		}
	}
	return out, nil
}
