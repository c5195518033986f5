// Package tensor provides the dense float64 tensor type and the neural
// network operators (convolution, GEMM, pooling, batch normalisation,
// ReLU, softmax) used as the plaintext reference semantics for the
// compiler: the NN IR's operators are defined to match these, and the
// cleartext executors validate every lowering against them.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromData wraps existing data (not copied) with a shape.
func FromData(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), shape))
	}
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
}

// At reads the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set writes the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d)", x, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Reshape returns a view with a new shape of identical size. A single -1
// dimension is inferred.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				return nil, fmt.Errorf("tensor: multiple -1 dimensions in %v", shape)
			}
			infer = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if t.Size()%n != 0 {
			return nil, fmt.Errorf("tensor: cannot infer dimension for %v from size %d", shape, t.Size())
		}
		out[infer] = t.Size() / n
		n *= out[infer]
	}
	if n != t.Size() {
		return nil, fmt.Errorf("tensor: reshape %v -> %v changes size", t.Shape, shape)
	}
	return &Tensor{Shape: out, Data: t.Data}, nil
}

// Flatten collapses everything after the first axis.
func (t *Tensor) Flatten() *Tensor {
	if len(t.Shape) == 0 {
		return t
	}
	out, _ := t.Reshape(t.Shape[0], -1)
	return out
}

// Transpose returns the transpose of a rank-2 tensor.
func (t *Tensor) Transpose() *Tensor {
	m, n := t.Shape[0], t.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// Add returns t + o elementwise (shapes must match).
func Add(a, b *Tensor) (*Tensor, error) {
	if !sameShape(a.Shape, b.Shape) {
		return nil, fmt.Errorf("tensor: add shape mismatch %v vs %v", a.Shape, b.Shape)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out, nil
}

// Mul returns a ⊙ b elementwise.
func Mul(a, b *Tensor) (*Tensor, error) {
	if !sameShape(a.Shape, b.Shape) {
		return nil, fmt.Errorf("tensor: mul shape mismatch %v vs %v", a.Shape, b.Shape)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out, nil
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sigmoid applies 1/(1+e^-x) elementwise.
func Sigmoid(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

// Tanh applies tanh elementwise.
func Tanh(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// ReLU applies max(0, x) elementwise.
func ReLU(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Gemm computes alpha*A*B + beta*C for 2-D A (m,k), B (k,n) and
// broadcastable C ((n), (1,n) or (m,n)); C may be nil.
func Gemm(a, b, c *Tensor, alpha, beta float64) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: gemm requires matrices, got %v x %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: gemm inner dimension mismatch %d vs %d", k, k2)
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := alpha * a.Data[i*k+l]
			if av == 0 {
				continue
			}
			row := b.Data[l*n : (l+1)*n]
			dst := out.Data[i*n : (i+1)*n]
			for j, bv := range row {
				dst[j] += av * bv
			}
		}
	}
	if c != nil && beta != 0 {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var cv float64
				switch {
				case c.Rank() == 1 && c.Shape[0] == n:
					cv = c.Data[j]
				case c.Rank() == 2 && c.Shape[0] == 1 && c.Shape[1] == n:
					cv = c.Data[j]
				case c.Rank() == 2 && c.Shape[0] == m && c.Shape[1] == n:
					cv = c.Data[i*n+j]
				case c.Rank() == 2 && c.Shape[0] == n && c.Shape[1] == 1:
					cv = c.Data[j]
				default:
					return nil, fmt.Errorf("tensor: gemm bias shape %v not broadcastable to (%d,%d)", c.Shape, m, n)
				}
				out.Data[i*n+j] += beta * cv
			}
		}
	}
	return out, nil
}

// ValidRange returns the output positions [from, to) along one axis whose
// input under kernel index k lies inside the image: o·stride + k − pad in
// [0, nIn). A tap with an empty range reads only padding.
func ValidRange(k, stride, pad, nOut, nIn int) (from, to int) {
	d := k - pad
	if d < 0 {
		from = (-d + stride - 1) / stride
	}
	if d < nIn {
		to = (nIn-1-d)/stride + 1
	}
	from = min(from, nOut)
	return from, max(from, min(to, nOut))
}

// Conv2D computes a 2-D convolution in NCHW layout with OIHW weights,
// symmetric zero padding and the given stride. Bias may be nil.
//
// Taps are the outer loop: each (co, ci, ky, kx) adds its weight times
// the input row it reads into every output row its valid range covers.
// Every output still starts from its bias and gains its taps in (ci, ky,
// kx) order, so the result is the per-output sum bit for bit.
func Conv2D(x, w, bias *Tensor, stride, pad int) (*Tensor, error) {
	if x.Rank() != 4 || w.Rank() != 4 {
		return nil, fmt.Errorf("tensor: conv2d requires NCHW input and OIHW weights, got %v, %v", x.Shape, w.Shape)
	}
	n, cIn, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cOut, cIn2, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if cIn != cIn2 {
		return nil, fmt.Errorf("tensor: conv2d channel mismatch %d vs %d", cIn, cIn2)
	}
	if bias != nil && bias.Size() != cOut {
		return nil, fmt.Errorf("tensor: conv2d bias size %d, want %d", bias.Size(), cOut)
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	out := New(n, cOut, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cOut; co++ {
			dst := out.Data[(b*cOut+co)*oh*ow : (b*cOut+co+1)*oh*ow]
			if bias != nil {
				for i := range dst {
					dst[i] = bias.Data[co]
				}
			}
			for ci := 0; ci < cIn; ci++ {
				src := x.Data[(b*cIn+ci)*h*wd : (b*cIn+ci+1)*h*wd]
				for ky := 0; ky < kh; ky++ {
					y0, y1 := ValidRange(ky, stride, pad, oh, h)
					for kx := 0; kx < kw; kx++ {
						x0, x1 := ValidRange(kx, stride, pad, ow, wd)
						if x0 == x1 {
							continue
						}
						wv := w.Data[((co*cIn+ci)*kh+ky)*kw+kx]
						for oy := y0; oy < y1; oy++ {
							row := dst[oy*ow+x0 : oy*ow+x1]
							in := src[(oy*stride+ky-pad)*wd+x0*stride+kx-pad:]
							if stride == 1 {
								in = in[:len(row)]
								for i := range row {
									row[i] += in[i] * wv
								}
								continue
							}
							for i := range row {
								row[i] += in[i*stride] * wv
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// AveragePool2D applies average pooling with the given kernel and stride
// (no padding) in NCHW layout.
func AveragePool2D(x *Tensor, kernel, stride int) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tensor: average_pool requires NCHW input, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-kernel)/stride + 1
	ow := (w-kernel)/stride + 1
	out := New(n, c, oh, ow)
	inv := 1 / float64(kernel*kernel)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := 0.0
					for ky := 0; ky < kernel; ky++ {
						for kx := 0; kx < kernel; kx++ {
							acc += x.Data[((b*c+ci)*h+oy*stride+ky)*w+ox*stride+kx]
						}
					}
					out.Data[((b*c+ci)*oh+oy)*ow+ox] = acc * inv
				}
			}
		}
	}
	return out, nil
}

// GlobalAveragePool2D averages each channel to a single value.
func GlobalAveragePool2D(x *Tensor) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tensor: global_average_pool requires NCHW input, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, 1, 1)
	inv := 1 / float64(h*w)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			acc := 0.0
			for i := 0; i < h*w; i++ {
				acc += x.Data[(b*c+ci)*h*w+i]
			}
			out.Data[b*c+ci] = acc * inv
		}
	}
	return out, nil
}

// BatchNorm applies the inference-time affine transform
// y = gamma*(x-mean)/sqrt(var+eps) + beta per channel (NCHW).
func BatchNorm(x, gamma, beta, mean, variance *Tensor, eps float64) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tensor: batch_norm requires NCHW input, got %v", x.Shape)
	}
	c := x.Shape[1]
	for _, p := range []*Tensor{gamma, beta, mean, variance} {
		if p.Size() != c {
			return nil, fmt.Errorf("tensor: batch_norm parameter size %d, want %d", p.Size(), c)
		}
	}
	out := x.Clone()
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	for ci := 0; ci < c; ci++ {
		scale := gamma.Data[ci] / math.Sqrt(variance.Data[ci]+eps)
		shift := beta.Data[ci] - mean.Data[ci]*scale
		for b := 0; b < n; b++ {
			base := (b*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				out.Data[base+i] = out.Data[base+i]*scale + shift
			}
		}
	}
	return out, nil
}

// Pad2D zero-pads the spatial dimensions of an NCHW tensor.
func Pad2D(x *Tensor, pad int) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tensor: pad2d requires NCHW input, got %v", x.Shape)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, h+2*pad, w+2*pad)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				src := x.Data[((b*c+ci)*h+y)*w:]
				dst := out.Data[((b*c+ci)*(h+2*pad)+y+pad)*(w+2*pad)+pad:]
				copy(dst[:w], src[:w])
			}
		}
	}
	return out, nil
}

// StridedSlice extracts out[i] = in[start[i] : start[i]+size[i] : stride[i]]
// per axis (the paper's strided_slice operator).
func StridedSlice(x *Tensor, start, size, stride []int) (*Tensor, error) {
	r := x.Rank()
	if len(start) != r || len(size) != r || len(stride) != r {
		return nil, fmt.Errorf("tensor: strided_slice parameter rank mismatch")
	}
	for i := 0; i < r; i++ {
		if stride[i] <= 0 || size[i] <= 0 {
			return nil, fmt.Errorf("tensor: strided_slice needs positive size and stride")
		}
		last := start[i] + (size[i]-1)*stride[i]
		if start[i] < 0 || last >= x.Shape[i] {
			return nil, fmt.Errorf("tensor: strided_slice out of range on axis %d", i)
		}
	}
	out := New(size...)
	idx := make([]int, r)
	src := make([]int, r)
	var rec func(axis int)
	rec = func(axis int) {
		if axis == r {
			for i := 0; i < r; i++ {
				src[i] = start[i] + idx[i]*stride[i]
			}
			out.Set(x.At(src...), idx...)
			return
		}
		for i := 0; i < size[axis]; i++ {
			idx[axis] = i
			rec(axis + 1)
		}
	}
	rec(0)
	return out, nil
}

// Softmax applies a numerically-stable softmax over the last axis.
func Softmax(x *Tensor) *Tensor {
	out := x.Clone()
	last := x.Shape[len(x.Shape)-1]
	rows := x.Size() / last
	for r := 0; r < rows; r++ {
		row := out.Data[r*last : (r+1)*last]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for i, v := range row {
			row[i] = math.Exp(v - maxV)
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
	}
	return out
}

// ArgMax returns the index of the maximum over the last axis of a
// rank-1 or flattened tensor.
func ArgMax(x *Tensor) int {
	best, bestIdx := math.Inf(-1), 0
	for i, v := range x.Data {
		if v > best {
			best = v
			bestIdx = i
		}
	}
	return bestIdx
}
