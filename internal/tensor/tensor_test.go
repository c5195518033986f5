package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAtSet(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || x.Rank() != 3 {
		t.Fatal("size/rank wrong")
	}
	x.Set(5, 1, 2, 3)
	if x.At(1, 2, 3) != 5 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Data[23] != 5 {
		t.Fatal("row-major offset wrong")
	}
}

func TestReshapeInference(t *testing.T) {
	x := New(2, 3, 4)
	y, err := x.Reshape(6, -1)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape[1] != 4 {
		t.Fatalf("inferred %d, want 4", y.Shape[1])
	}
	if _, err := x.Reshape(5, -1); err == nil {
		t.Fatal("expected error for non-divisible inference")
	}
	if _, err := x.Reshape(-1, -1); err == nil {
		t.Fatal("expected error for double inference")
	}
	f := x.Flatten()
	if f.Shape[0] != 2 || f.Shape[1] != 12 {
		t.Fatalf("flatten gave %v", f.Shape)
	}
}

func TestGemmIdentity(t *testing.T) {
	// A * I == A
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	id := New(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(1, i, i)
	}
	out, err := Gemm(a, id, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if !almostEq(out.Data[i], a.Data[i]) {
			t.Fatal("A*I != A")
		}
	}
}

func TestGemmBias(t *testing.T) {
	a := FromData([]float64{1, 0, 0, 1}, 2, 2)
	b := FromData([]float64{1, 2, 3, 4}, 2, 2)
	c := FromData([]float64{10, 20}, 2)
	out, err := Gemm(a, b, c, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if !almostEq(out.Data[i], want[i]) {
			t.Fatalf("got %v want %v", out.Data, want)
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m, k, n := 5, 7, 4
	a, b := New(m, k), New(k, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	out, err := Gemm(a, b, nil, 2.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for l := 0; l < k; l++ {
				want += a.At(i, l) * b.At(l, j)
			}
			if !almostEq(out.At(i, j), 2.5*want) {
				t.Fatalf("gemm mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestConv2DKnown(t *testing.T) {
	// 1x1x3x3 input, 1x1x2x2 kernel of ones, stride 1, no padding:
	// output is the 2x2 sums.
	x := FromData([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := FromData([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	out, err := Conv2D(x, w, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 16, 24, 28}
	for i := range want {
		if !almostEq(out.Data[i], want[i]) {
			t.Fatalf("conv got %v want %v", out.Data, want)
		}
	}
}

func TestConv2DPaddingStride(t *testing.T) {
	x := FromData([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	w := FromData([]float64{1}, 1, 1, 1, 1) // identity kernel
	out, err := Conv2D(x, w, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Padded 4x4 sampled at stride 2 with 1x1 kernel: corners of padding.
	if out.Shape[2] != 2 || out.Shape[3] != 2 {
		t.Fatalf("shape %v", out.Shape)
	}
	want := []float64{0, 0, 0, 4}
	for i := range want {
		if !almostEq(out.Data[i], want[i]) {
			t.Fatalf("conv got %v want %v", out.Data, want)
		}
	}
}

func TestConv2DBiasAndChannels(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	x := New(1, 3, 5, 5)
	w := New(2, 3, 3, 3)
	bias := FromData([]float64{0.5, -0.5}, 2)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	for i := range w.Data {
		w.Data[i] = rng.Float64() - 0.5
	}
	out, err := Conv2D(x, w, bias, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[1] != 2 || out.Shape[2] != 5 || out.Shape[3] != 5 {
		t.Fatalf("shape %v", out.Shape)
	}
	// Spot-check one output element against a direct sum.
	co, oy, ox := 1, 2, 3
	acc := bias.Data[co]
	for ci := 0; ci < 3; ci++ {
		for ky := 0; ky < 3; ky++ {
			for kx := 0; kx < 3; kx++ {
				iy, ix := oy+ky-1, ox+kx-1
				if iy < 0 || iy >= 5 || ix < 0 || ix >= 5 {
					continue
				}
				acc += x.At(0, ci, iy, ix) * w.At(co, ci, ky, kx)
			}
		}
	}
	if !almostEq(out.At(0, co, oy, ox), acc) {
		t.Fatalf("conv spot check: got %g want %g", out.At(0, co, oy, ox), acc)
	}
}

// conv2DPerOutput is the per-output convolution Conv2D replaced: each
// output starts from its bias and sums its in-range taps in (ci, ky, kx)
// order.
func conv2DPerOutput(x, w, bias *Tensor, stride, pad int) *Tensor {
	n, cIn, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cOut, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := (h+2*pad-kh)/stride+1, (wd+2*pad-kw)/stride+1
	out := New(n, cOut, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cOut; co++ {
			base := 0.0
			if bias != nil {
				base = bias.Data[co]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc := base
					for ci := 0; ci < cIn; ci++ {
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
								acc += x.Data[((b*cIn+ci)*h+iy)*wd+ix] * w.Data[((co*cIn+ci)*kh+ky)*kw+kx]
							}
						}
					}
					out.Data[((b*cOut+co)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// TestConv2DMatchesPerOutput checks the row-wise Conv2D, and Conv2DInto
// a buffer holding stale values, against the per-output loop bit for
// bit, and ValidRange against a scan, over random
// shapes, strides and paddings. Output channel counts run from 1 to 9,
// so blocks of four, a remainder after them and a remainder alone all
// occur.
func TestConv2DMatchesPerOutput(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for trial := 0; trial < 2000; trial++ {
		n, cIn, cOut := 1+rng.IntN(2), 1+rng.IntN(5), 1+rng.IntN(9)
		h, wd, kh, kw := 1+rng.IntN(9), 1+rng.IntN(9), 1+rng.IntN(4), 1+rng.IntN(4)
		stride, pad := 1+rng.IntN(3), rng.IntN(3)
		if h+2*pad < kh || wd+2*pad < kw {
			continue
		}
		x, w := New(n, cIn, h, wd), New(cOut, cIn, kh, kw)
		for _, d := range [][]float64{x.Data, w.Data} {
			for i := range d {
				d[i] = rng.NormFloat64()
			}
		}
		var bias *Tensor
		if rng.IntN(2) == 1 {
			bias = New(cOut)
			for i := range bias.Data {
				bias.Data[i] = rng.NormFloat64()
			}
		}
		got, err := Conv2D(x, w, bias, stride, pad)
		if err != nil {
			t.Fatal(err)
		}
		// Into a reused buffer that still holds an earlier output.
		dirty, err := Conv2DInto(func(n int) []float64 {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			return b
		}, x, w, bias, stride, pad)
		if err != nil {
			t.Fatal(err)
		}
		want := conv2DPerOutput(x, w, bias, stride, pad)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) || math.Float64bits(dirty.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d (x %v, w %v, stride %d, pad %d, bias %t): output %d is %v (into a reused buffer %v), per-output loop %v",
					trial, x.Shape, w.Shape, stride, pad, bias != nil, i, got.Data[i], dirty.Data[i], want.Data[i])
			}
		}
		for k := 0; k < kh; k++ {
			nOut := got.Shape[2]
			from, to := ValidRange(k, stride, pad, nOut, h)
			for o := 0; o < nOut; o++ {
				iy := o*stride + k - pad
				if in := iy >= 0 && iy < h; in != (o >= from && o < to) {
					t.Fatalf("ValidRange(%d, %d, %d, %d, %d) = [%d, %d), output %d reads row %d", k, stride, pad, nOut, h, from, to, o, iy)
				}
			}
		}
	}
}

func TestPools(t *testing.T) {
	x := FromData([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	avg, err := AveragePool2D(x, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if !almostEq(avg.Data[i], want[i]) {
			t.Fatalf("avgpool got %v", avg.Data)
		}
	}
	gap, err := GlobalAveragePool2D(x)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(gap.Data[0], 8.5) {
		t.Fatalf("global avg got %g", gap.Data[0])
	}
}

func TestBatchNormFold(t *testing.T) {
	x := New(1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	gamma := FromData([]float64{2, 1}, 2)
	beta := FromData([]float64{1, 0}, 2)
	mean := FromData([]float64{1, 2}, 2)
	variance := FromData([]float64{4, 1}, 2)
	out, err := BatchNorm(x, gamma, beta, mean, variance, 0)
	if err != nil {
		t.Fatal(err)
	}
	// channel 0: y = 2*(x-1)/2 + 1 = x
	for i := 0; i < 4; i++ {
		if !almostEq(out.Data[i], float64(i)) {
			t.Fatalf("bn channel 0: got %v", out.Data[:4])
		}
	}
	// channel 1: y = (x-2)
	for i := 4; i < 8; i++ {
		if !almostEq(out.Data[i], float64(i)-2) {
			t.Fatalf("bn channel 1: got %v", out.Data[4:])
		}
	}
}

func TestReLUAndSoftmaxAndArgMax(t *testing.T) {
	x := FromData([]float64{-1, 0, 2, -3}, 4)
	r := ReLU(x)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if r.Data[i] != want[i] {
			t.Fatalf("relu got %v", r.Data)
		}
	}
	s := Softmax(FromData([]float64{1, 2, 3}, 3))
	sum := s.Data[0] + s.Data[1] + s.Data[2]
	if !almostEq(sum, 1) {
		t.Fatalf("softmax does not sum to 1: %g", sum)
	}
	if !(s.Data[2] > s.Data[1] && s.Data[1] > s.Data[0]) {
		t.Fatal("softmax not monotone")
	}
	if ArgMax(s) != 2 {
		t.Fatal("argmax wrong")
	}
}

func TestPad2D(t *testing.T) {
	x := FromData([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	p, err := Pad2D(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shape[2] != 4 || p.Shape[3] != 4 {
		t.Fatalf("pad shape %v", p.Shape)
	}
	if p.At(0, 0, 0, 0) != 0 || p.At(0, 0, 1, 1) != 1 || p.At(0, 0, 2, 2) != 4 {
		t.Fatal("pad content wrong")
	}
}

func TestStridedSlice(t *testing.T) {
	x := New(4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out, err := StridedSlice(x, []int{0, 1}, []int{2, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 9, 11}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("strided_slice got %v want %v", out.Data, want)
		}
	}
	if _, err := StridedSlice(x, []int{3, 0}, []int{2, 1}, []int{2, 1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestConvLinearityProperty(t *testing.T) {
	// Conv2D is linear in the input: conv(a*x + y) == a*conv(x) + conv(y).
	w := New(2, 1, 3, 3)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range w.Data {
		w.Data[i] = rng.Float64() - 0.5
	}
	f := func(seed uint64, alpha int8) bool {
		r2 := rand.New(rand.NewPCG(seed, 1))
		x, y := New(1, 1, 4, 4), New(1, 1, 4, 4)
		for i := range x.Data {
			x.Data[i] = r2.Float64()
			y.Data[i] = r2.Float64()
		}
		a := float64(alpha) / 8
		mix := New(1, 1, 4, 4)
		for i := range mix.Data {
			mix.Data[i] = a*x.Data[i] + y.Data[i]
		}
		c1, _ := Conv2D(mix, w, nil, 1, 1)
		cx, _ := Conv2D(x, w, nil, 1, 1)
		cy, _ := Conv2D(y, w, nil, 1, 1)
		for i := range c1.Data {
			if math.Abs(c1.Data[i]-(a*cx.Data[i]+cy.Data[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
