package vecir

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/tensor"
)

func TestLayoutSlotBijective(t *testing.T) {
	for _, lay := range []*Layout{
		{C: 4, H: 8, W: 8, H0: 8, W0: 8, Sy: 1, Sx: 1, L: 256, Gain: 1},
		{C: 8, H: 4, W: 4, H0: 8, W0: 8, Sy: 2, Sx: 2, L: 256, Gain: 1},
		{C: 16, H: 2, W: 2, H0: 8, W0: 8, Sy: 4, Sx: 4, L: 256, Gain: 1},
	} {
		seen := map[int]bool{}
		for c := 0; c < lay.C; c++ {
			for y := 0; y < lay.H; y++ {
				for x := 0; x < lay.W; x++ {
					s := lay.Slot(c, y, x)
					if s < 0 || s >= lay.L {
						t.Fatalf("%s: slot %d out of range", lay, s)
					}
					if seen[s] {
						t.Fatalf("%s: slot %d reused", lay, s)
					}
					seen[s] = true
				}
			}
		}
	}
}

func TestLayoutPackUnpackRoundTrip(t *testing.T) {
	lay := &Layout{C: 8, H: 4, W: 4, H0: 8, W0: 8, Sy: 2, Sx: 2, L: 512, Gain: 2}
	data := make([]float64, 8*4*4)
	for i := range data {
		data[i] = float64(i) + 1
	}
	v, err := lay.Pack(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := lay.Unpack(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(back[i]-data[i]) > 1e-12 {
			t.Fatalf("pack/unpack mismatch at %d", i)
		}
	}
	if _, err := lay.Pack(data[:5]); err == nil {
		t.Fatal("expected size error")
	}
}

func TestDownsampleValidation(t *testing.T) {
	lay, err := NewInputLayout(3, 8, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInputLayout(3, 7, 8, 1024); err == nil {
		t.Fatal("expected power-of-two error")
	}
	d, err := lay.Downsample(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if d.H != 4 || d.Sy != 2 || d.Blocks() != 3 {
		t.Fatalf("downsample gave %s", d)
	}
	if _, err := lay.Downsample(3, 3); err == nil {
		t.Fatal("expected non-dividing stride error")
	}
}

// lowerAndCompare compiles a model to VECTOR IR and checks the vector
// executor against the NN reference on random inputs.
func lowerAndCompare(t *testing.T, m *onnx.Model, opts Options, seeds []uint64, tol float64) (*Result, *ir.Module) {
	t.Helper()
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := &ir.PassManager{}
	pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(nn); err != nil {
		t.Fatal(err)
	}
	res, err := Lower(nn, opts)
	if err != nil {
		t.Fatal(err)
	}
	inShape := nn.Main().Params[0].Type.Shape
	for _, seed := range seeds {
		rng := rand.New(rand.NewPCG(seed, 17))
		x := tensor.New(inShape...)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{nn.Main().Params[0].Name: x})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := res.InLayout.Pack(x.Data)
		if err != nil {
			t.Fatal(err)
		}
		outVec, err := Run(res.Module.Main(), packed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.OutLayout.Unpack(outVec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Abs(got[i]-want.Data[i]) > tol {
				t.Fatalf("seed %d output %d: vec %g vs nn %g", seed, i, got[i], want.Data[i])
			}
		}
	}
	return res, nn
}

func TestLowerLinear(t *testing.T) {
	m, err := onnx.BuildLinear(84, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := lowerAndCompare(t, m, Options{}, []uint64{1, 2}, 1e-9)
	if res.InLayout.C != 84 || res.OutLayout.C != 10 {
		t.Fatalf("layouts: in %s out %s", res.InLayout, res.OutLayout)
	}
	// Dense FC output: class k at slot k.
	if res.OutLayout.Slot(3, 0, 0) != 3 {
		t.Fatal("FC output not densely packed")
	}
}

func TestLowerSmallCNN(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	lowerAndCompare(t, m, Options{}, []uint64{3, 4}, 1e-9)
}

func TestLowerResNetMini(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	lowerAndCompare(t, m, Options{}, []uint64{5}, 1e-9)
}

func TestLowerResNetMiniNaive(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	resShared, _ := lowerAndCompare(t, m, Options{}, []uint64{6}, 1e-9)
	resNaive, _ := lowerAndCompare(t, m, Options{Conv: ConvNaive}, []uint64{6}, 1e-9)
	shared := Analyze(resShared.Module.Main())
	naive := Analyze(resNaive.Module.Main())
	if shared.Rotations >= naive.Rotations {
		t.Fatalf("rotation sharing did not help: shared %d vs naive %d", shared.Rotations, naive.Rotations)
	}
	if shared.DistinctRotations >= naive.DistinctRotations {
		t.Fatalf("key analysis: shared %d vs naive %d distinct rotations", shared.DistinctRotations, naive.DistinctRotations)
	}
}

// TestBSGSModulus pins the split rule alone: rotation counts on the
// shapes it was introduced for, b + g ≡ t on every offset, and a
// deterministic choice.
func TestBSGSModulus(t *testing.T) {
	span := func(from, to int) []int {
		var out []int
		for v := from; v <= to; v++ {
			out = append(out, v)
		}
		return out
	}
	// Stage-1 convolution at paper scale: 16 channels in 16 blocks of
	// 32x32 (all 31 block displacements), 3x3 taps.
	var stage1 []int
	for blk := -15; blk <= 15; blk++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				stage1 = append(stage1, blk*1024+dy*32+dx)
			}
		}
	}
	// A multiplexed layer's spatial neighbourhood around every block
	// displacement: the babies must come back as the spatial offsets.
	var centred []int
	for blk := 0; blk < 8; blk++ {
		for _, d := range span(-33, 33) {
			centred = append(centred, blk*1024+d)
		}
	}
	for _, tc := range []struct {
		name    string
		offsets []int
		l, most int
	}{
		{"gemv 512", span(0, 511), 512, 46},
		{"gemv 64", span(0, 63), 64, 16},
		{"gemv 64 in 128 slots", span(0, 63), 128, 16},
		{"stage-1 3x3 over 16 blocks", stage1, 16384, 23},
		{"empty", nil, 64, 0},
		{"identity only", []int{0}, 64, 0},
		{"one offset", []int{5}, 64, 1},
		{"centred negatives", centred, 8192, 66 + 7},
	} {
		offsets := make([]int, len(tc.offsets))
		for i, v := range tc.offsets {
			offsets[i] = ((v % tc.l) + tc.l) % tc.l
		}
		m, _ := bsgsModulus(newRotationCounter(tc.l), offsets, tc.l)
		if m < 1 || m > tc.l || m&(m-1) != 0 {
			t.Fatalf("%s: modulus %d is not a power of two in [1, %d]", tc.name, m, tc.l)
		}
		if got := newRotationCounter(tc.l).rotations(offsets, m, tc.l); got > tc.most {
			t.Errorf("%s: %d rotations at M=%d, want at most %d", tc.name, got, m, tc.most)
		}
		rng := rand.New(rand.NewPCG(7, uint64(len(offsets))))
		rng.Shuffle(len(offsets), func(i, j int) { offsets[i], offsets[j] = offsets[j], offsets[i] })
		if again, _ := bsgsModulus(newRotationCounter(tc.l), offsets, tc.l); again != m {
			t.Errorf("%s: modulus %d, then %d on the same set reordered", tc.name, m, again)
		}
		for _, off := range offsets {
			b, g := bsgsSplit(off, m, tc.l, tc.l)
			if b < 0 || b >= tc.l || g < 0 || g >= tc.l || (b+g)%tc.l != off {
				t.Fatalf("%s: offset %d split into b=%d g=%d at M=%d", tc.name, off, b, g, m)
			}
		}
		if tc.name == "centred negatives" {
			for _, off := range offsets {
				if b, _ := bsgsSplit(off, m, tc.l, tc.l); (b+33)%tc.l > 66 {
					t.Fatalf("offset %d: baby %d is not a spatial offset in [-33, 33]", off, b)
				}
			}
		}
	}
}

// TestDerivedSplitProperty lowers generated linear layers — convolutions
// from a multiplexed layout (the packing after a stride-2 layer) and Gemm
// shapes — and checks what the fold and the derived split promise: the
// same function as the reference, held at every replica of every output
// (checkFolded), one mask per distinct total offset mod the chosen
// period, and no more rotations than the unfolded derived split. That
// split in turn issues no more rotations than fixing spatial offsets as
// babies and channel displacements as giants would, for layers with
// several channels on both sides. With a single channel on one side of a
// 3x3 kernel the other side's stride phases interleave with the spatial
// offsets bit by bit, which no residue split can separate: there the
// split is held to the bound it can always meet, one rotation per
// non-zero diagonal (over 20 000 generated layers it exceeded the fixed
// split on 1.9 %, all of this kind, by at most 5 rotations).
func TestDerivedSplitProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 3))
	for trial := 0; trial < 80; trial++ {
		cIn, cOut := 1+rng.IntN(32), 1+rng.IntN(32)
		k, pad := 1, 0
		if rng.IntN(2) == 1 {
			k, pad = 3, 1
		}
		stride := 1 + rng.IntN(2)
		w := tensor.New(cOut, cIn, k, k)
		for i := range w.Data {
			if rng.IntN(4) != 0 { // a quarter of the taps pruned
				w.Data[i] = rng.Float64()*2 - 1
			}
		}
		w.Data[rng.IntN(len(w.Data))] = 0.5
		bias := tensor.New(cOut)
		for i := range bias.Data {
			bias.Data[i] = rng.Float64() + 0.5
		}
		name := fmt.Sprintf("trial %d (%d->%d channels, %dx%d, stride %d)", trial, cIn, cOut, k, k, stride)

		li := &Layout{C: cIn, H: 4, W: 4, H0: 8, W0: 8, Sy: 2, Sx: 2, Gain: 1}
		lo := &Layout{C: cOut, H: 4 / stride, W: 4 / stride, H0: 8, W0: 8, Sy: 2 * stride, Sx: 2 * stride, Gain: 1}
		l := nextPow2(max(li.Blocks(), lo.Blocks()) * 64)
		li.L, lo.L = l, l

		b := onnx.NewBuilder("conv")
		y := b.Conv(b.Input("x", 1, int64(cIn), 4, 4), b.Weight("w", w), b.Weight("b", bias), int64(stride), int64(pad))
		b.Output(y, 1, int64(cOut), int64(lo.H), int64(lo.W))
		nn, err := nnir.Import(b.Model())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The weights as imported (ONNX stores them as float32).
		w = nn.Main().Body[0].Args[1].Const.(*tensor.Tensor)
		bias = nn.Main().Body[0].Args[2].Const.(*tensor.Tensor)
		x := tensor.New(1, cIn, 4, 4)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{"x": x})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// The offset sets, from the weights and the two layouts alone.
		mod := func(v int) int { return ((v % l) + l) % l }
		totals, spatial, channel := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for co := 0; co < cOut; co++ {
			bo, pyo, pxo := lo.phase(co)
			for ci := 0; ci < cIn; ci++ {
				bi, pyi, pxi := li.phase(ci)
				rv := mod((bi-bo)*64 + (pyi-pyo)*8 + pxi - pxo)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if w.At(co, ci, ky, kx) == 0 {
							continue
						}
						sj := mod((ky-pad)*li.Sy*8 + (kx-pad)*li.Sx)
						totals[mod(rv+sj)] = true
						if sj != 0 {
							spatial[sj] = true
						}
						if rv != 0 {
							channel[rv] = true
						}
					}
				}
			}
		}
		packed, _ := li.Pack(x.Data)
		unfolded := checkFolded(t, name, li, lo, w, bias, stride, pad, packed, want.Data, totals)
		bound, rule := len(totals), "one per diagonal"
		if totals[0] {
			bound--
		}
		if cIn > 1 && cOut > 1 {
			bound, rule = min(bound, len(spatial)+len(channel)), "spatial-baby/channel-giant"
		}
		if unfolded > bound {
			t.Errorf("%s: the unfolded split issues %d rotations, %s would issue %d", name, unfolded, rule, bound)
		}
	}
	for trial := 0; trial < 40; trial++ {
		features, classes := 16+rng.IntN(1009), 1+rng.IntN(40)
		name := fmt.Sprintf("gemm %d (%dx%d)", trial, features, classes)
		w, bias := tensor.New(classes, features, 1, 1), tensor.New(classes)
		x, want := make([]float64, features), make([]float64, classes)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		l := nextPow2(max(features, classes))
		totals := map[int]bool{}
		for c := 0; c < classes; c++ {
			bias.Data[c] = rng.Float64() + 0.5
			want[c] = bias.Data[c]
			for f := 0; f < features; f++ {
				if rng.IntN(4) != 0 {
					w.Data[c*features+f] = rng.Float64()*2 - 1
					want[c] += w.Data[c*features+f] * x[f]
					totals[(f-c+l)%l] = true
				}
			}
		}
		li := &Layout{C: features, H: 1, W: 1, H0: 1, W0: 1, Sy: 1, Sx: 1, L: l, Gain: 1}
		lo := &Layout{C: classes, H: 1, W: 1, H0: 1, W0: 1, Sy: 1, Sx: 1, L: l, Gain: 1}
		packed, _ := li.Pack(x)
		checkFolded(t, name, li, lo, w, bias, 1, 0, packed, want, totals)
	}
}

// TestConvPaddingOnlyKernelRows lowers 3x3 convolutions (pad 1) over a
// single image row: the kernel's first and last rows read only padding
// and have no diagonal, the middle row follows them in tap order and
// has.
func TestConvPaddingOnlyKernelRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 4))
	for _, ch := range [][2]int{{1, 1}, {3, 5}, {4, 4}} {
		cIn, cOut := ch[0], ch[1]
		name := fmt.Sprintf("%d->%d channels over one row", cIn, cOut)
		w, bias := tensor.New(cOut, cIn, 3, 3), tensor.New(cOut)
		for i := range w.Data {
			w.Data[i] = rng.Float64()*2 - 1
		}
		for i := range bias.Data {
			bias.Data[i] = rng.Float64() + 0.5
		}
		b := onnx.NewBuilder("conv")
		y := b.Conv(b.Input("x", 1, int64(cIn), 1, 8), b.Weight("w", w), b.Weight("b", bias), 1, 1)
		b.Output(y, 1, int64(cOut), 1, 8)
		nn, err := nnir.Import(b.Model())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w = nn.Main().Body[0].Args[1].Const.(*tensor.Tensor)
		bias = nn.Main().Body[0].Args[2].Const.(*tensor.Tensor)
		x := tensor.New(1, cIn, 1, 8)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{"x": x})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l := nextPow2(max(cIn, cOut) * 8)
		li := &Layout{C: cIn, H: 1, W: 8, H0: 1, W0: 8, Sy: 1, Sx: 1, L: l, Gain: 1}
		lo := &Layout{C: cOut, H: 1, W: 8, H0: 1, W0: 8, Sy: 1, Sx: 1, L: l, Gain: 1}
		totals := map[int]bool{}
		for co := 0; co < cOut; co++ {
			for ci := 0; ci < cIn; ci++ {
				for kx := 0; kx < 3; kx++ {
					totals[offset(li, ci, 0, kx-1, lo, co)] = true
				}
			}
		}
		packed, _ := li.Pack(x.Data)
		checkFolded(t, name, li, lo, w, bias, 1, 1, packed, want.Data, totals)
	}
}

// checkFolded lowers one linear layer, runs it on packed and checks the
// vector against the reference outputs want at every slot (checkReplicas),
// one mask per distinct total offset mod the chosen period, and no more
// rotations than the unfolded derived split, whose count it returns.
func checkFolded(t *testing.T, name string, li, lo *Layout, w, bias *tensor.Tensor, stride, pad int, packed, want []float64, totals map[int]bool) int {
	t.Helper()
	l := li.L
	f := ir.NewModule("linear").NewFunc("main")
	lw := &lowering{f: f, l: l, vt: ir.VectorType(l)}
	var p int
	var err error
	f.Ret, p, err = lw.emitConv(f.NewParam("x", lw.vt), li, lo, w, bias, stride, pad)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	outVec, err := Run(f, packed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := checkReplicas(outVec, lo, want, p, 1e-9); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := checkMasks(f, masksPerTap(li, lo, w, bias, stride, pad)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fa := ir.NewModule("linear").NewFunc("main")
	la := &lowering{f: fa, l: l, vt: ir.VectorType(l), opts: Options{AnalysisOnly: true}}
	if fa.Ret, _, err = la.emitConv(fa.NewParam("x", la.vt), li, lo, w, bias, stride, pad); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sameStream(f, fa); err != nil {
		t.Fatalf("%s: AnalysisOnly: %v", name, err)
	}
	for s, v := range la.scratch {
		if v != 0 {
			t.Fatalf("%s: AnalysisOnly left %g in scratch slot %d", name, v, s)
		}
	}
	residues := map[int]bool{}
	for off := range totals {
		residues[off%p] = true
	}
	stats := Analyze(f)
	if stats.Mults != len(residues) {
		t.Errorf("%s: %d masks for %d distinct total offsets mod the period %d", name, stats.Mults, len(residues), p)
	}
	_, unfolded := bsgsModulus(newRotationCounter(l), sortedKeys(totals), l)
	if stats.Rotations > unfolded {
		t.Errorf("%s: %d rotations at period %d, the unfolded split issues %d", name, stats.Rotations, p, unfolded)
	}
	return unfolded
}

// sortedKeys lists a set's members in ascending order.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// checkReplicas reports the first slot of v that breaks period p: every
// slot congruent mod p to an output slot of lo must hold that output's
// reference value (within tol) and every other slot exactly 0.
func checkReplicas(v []float64, lo *Layout, want []float64, p int, tol float64) error {
	at := map[int]float64{}
	for c := 0; c < lo.C; c++ {
		for y := 0; y < lo.H; y++ {
			for x := 0; x < lo.W; x++ {
				at[lo.Slot(c, y, x)%p] = want[(c*lo.H+y)*lo.W+x]
			}
		}
	}
	for s, got := range v {
		ref, ok := at[s%p]
		if !ok && got != 0 || ok && math.Abs(got-ref) > tol {
			return fmt.Errorf("period %d: slot %d holds %g, want %g", p, s, got, ref)
		}
	}
	return nil
}

// masksPerTap is the mask construction emitConv replaced, kept as the
// reference: every mask of the layer allocated before any is emitted, taps
// visited in (co, ci, ky, kx) order, each element placed with a %. It
// returns every constant by name, the bias included.
func masksPerTap(li, lo *Layout, w, bias *tensor.Tensor, stride, pad int) map[string][]float64 {
	l := li.L
	cOut, cIn, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	valid := func(k, nOut, nIn int) (from, to int) {
		d := k - pad
		for from = 0; from < nOut && from*stride+d < 0; from++ {
		}
		for to = nOut; to > from && (to-1)*stride+d >= nIn; to-- {
		}
		return from, to
	}
	var taps []tap
	seen := map[int]bool{}
	for co := 0; co < cOut; co++ {
		for ci := 0; ci < cIn; ci++ {
			for ky := 0; ky < kh; ky++ {
				y0, y1 := valid(ky, lo.H, li.H)
				for kx := 0; kx < kw && y0 < y1; kx++ {
					x0, x1 := valid(kx, lo.W, li.W)
					wv := w.At(co, ci, ky, kx) / li.Gain
					if wv == 0 || x0 == x1 {
						continue
					}
					t := offset(li, ci, ky-pad, kx-pad, lo, co)
					taps = append(taps, tap{t, lo.Slot(co, 0, 0), y0, y1, x0, x1, wv})
					seen[t] = true
				}
			}
		}
	}
	var outs []int
	for co := 0; co < cOut; co++ {
		for yo := 0; yo < lo.H; yo++ {
			for xo := 0; xo < lo.W; xo++ {
				outs = append(outs, lo.Slot(co, yo, xo))
			}
		}
	}
	p, m := foldSplit(newRotationCounter(l), sortedKeys(seen), outs)
	masks, byName := map[int][]float64{}, map[string][]float64{}
	for _, tp := range taps {
		r := tp.t % p
		b, g := bsgsSplit(r, m, p, l)
		if masks[r] == nil {
			masks[r] = make([]float64, l)
			byName[fmt.Sprintf("mask_r%d_s%d", g, b)] = masks[r]
		}
		shift := (tp.t - b + l) % l
		for yo := tp.y0; yo < tp.y1; yo++ {
			row := tp.base + shift + yo*lo.Sy*lo.W0
			for xo := tp.x0; xo < tp.x1; xo++ {
				masks[r][(row+xo*lo.Sx)%l] += tp.w
			}
		}
	}
	if bias != nil {
		bv := make([]float64, l)
		for i, s := range outs {
			for ; s < l; s += p {
				bv[s] += bias.Data[i/(lo.H*lo.W)]
			}
		}
		byName["bias"] = bv
	}
	return byName
}

// fillMaskPerElement is the mask fill fillMask replaced, kept as the
// reference: a % per row and a wrap test per element.
func fillMaskPerElement(v []float64, taps []tap, b int, lo *Layout) {
	l := len(v)
	for _, tp := range taps {
		start := tp.base + (tp.t-b+l)%l + tp.x0*lo.Sx
		for yo := tp.y0; yo < tp.y1; yo++ {
			i := (start + yo*lo.Sy*lo.W0) % l
			for xo := tp.x0; xo < tp.x1; xo++ {
				v[i] += tp.w
				if i += lo.Sx; i >= l {
					i -= l
				}
			}
		}
	}
}

// TestFillMaskWraps checks fillMask against the element-wise loop it
// replaced and against the per-element % placement, bit for bit, on
// random taps, offsets, babies and strides Sx of 1, 2 and 4: rows that
// run past the end of the vector, which no generated layer or zoo model
// produces, wrap to its start, and the span it returns holds every slot
// it wrote.
func TestFillMaskWraps(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 2))
	wrapped := map[int]int{} // rows that wrap, per Sx
	for trial := 0; trial < 500; trial++ {
		s := 1 << rng.IntN(3)
		lo := &Layout{C: 1 + rng.IntN(16), H: 8 / s, W: 8 / s, H0: 8, W0: 8, Sy: s, Sx: s, Gain: 1}
		l := nextPow2(lo.Blocks() * 64)
		lo.L = l
		taps := make([]tap, 1+rng.IntN(4))
		want := make([]float64, l)
		b := rng.IntN(l)
		for i := range taps {
			y0, x0 := rng.IntN(lo.H), rng.IntN(lo.W)
			tp := tap{rng.IntN(l), lo.Slot(rng.IntN(lo.C), 0, 0), y0, y0 + 1 + rng.IntN(lo.H-y0), x0, x0 + 1 + rng.IntN(lo.W-x0), rng.NormFloat64()}
			taps[i] = tp
			for yo := tp.y0; yo < tp.y1; yo++ {
				row := tp.base + (tp.t-b+l)%l + yo*lo.Sy*lo.W0
				if (row+tp.x0*lo.Sx)%l > (row+(tp.x1-1)*lo.Sx)%l {
					wrapped[lo.Sx]++
				}
				for xo := tp.x0; xo < tp.x1; xo++ {
					want[(row+xo*lo.Sx)%l] += tp.w
				}
			}
		}
		got, ref := make([]float64, l), make([]float64, l)
		from, to := fillMask(got, taps, b, lo)
		fillMaskPerElement(ref, taps, b, lo)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("trial %d: slot %d holds %v, the element-wise loop %v, the %% placement %v", trial, i, got[i], ref[i], want[i])
			}
		}
		clear(got[from:to])
		for i, v := range got {
			if v != 0 {
				t.Fatalf("trial %d: slot %d holds %v outside the span [%d,%d) fillMask returned", trial, i, v, from, to)
			}
		}
	}
	for _, sx := range []int{1, 2, 4} {
		if wrapped[sx] == 0 {
			t.Errorf("no row wrapped at Sx = %d", sx)
		}
	}
}

// checkMasks reports the first constant of f that differs in a bit from
// its reference, or a reference constant f does not hold.
func checkMasks(f *ir.Func, ref map[string][]float64) error {
	found := map[string]bool{}
	for _, in := range f.Body {
		for _, a := range in.Args {
			if !a.IsConst() {
				continue
			}
			got, want := a.Const.([]float64), ref[a.Name]
			if want == nil {
				return fmt.Errorf("constant %s has no reference", a.Name)
			}
			for s := range want {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					return fmt.Errorf("constant %s slot %d: %v, per-tap construction %v", a.Name, s, got[s], want[s])
				}
			}
			found[a.Name] = true
		}
	}
	if len(found) != len(ref) {
		return fmt.Errorf("%d constants, the per-tap construction has %d", len(found), len(ref))
	}
	return nil
}

// sameStream reports the first difference between two lowerings'
// instruction streams: ops, operands, attributes and constant names.
func sameStream(a, b *ir.Func) error {
	if a.String() != b.String() {
		return fmt.Errorf("printed functions differ:\n%s\nvs\n%s", a, b)
	}
	for i, in := range a.Body {
		for j, x := range in.Args {
			if y := b.Body[i].Args[j]; x.IsConst() && x.Name != y.Name {
				return fmt.Errorf("instruction %d operand %d: constant %s vs %s", i, j, x.Name, y.Name)
			}
		}
	}
	return nil
}

// TestAnalysisOnlySameStream lowers whole models with and without
// AnalysisOnly: the instruction streams must be the same, only the
// payloads differ.
func TestAnalysisOnlySameStream(t *testing.T) {
	small, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	resnet, _ := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	linear, _ := onnx.BuildLinear(84, 10, 5)
	for _, m := range []*onnx.Model{small, resnet, linear} {
		nn, err := nnir.Import(m)
		if err != nil {
			t.Fatal(err)
		}
		pm := &ir.PassManager{}
		pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
		if err := pm.Run(nn); err != nil {
			t.Fatal(err)
		}
		full, err := Lower(nn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stub, err := Lower(nn, Options{AnalysisOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStream(full.Module.Main(), stub.Module.Main()); err != nil {
			t.Fatalf("%s: %v", m.Graph.Name, err)
		}
	}
}

// TestAnalysisOnlyScratchClears lowers paper-scale ResNet-20 under
// AnalysisOnly and checks that every constant leaves the one scratch
// buffer all zeros: each fill is undone by one clear over the span it
// reports, so a fill writing outside its span shows here.
func TestAnalysisOnlyScratchClears(t *testing.T) {
	if testing.Short() {
		t.Skip("lowers at paper scale")
	}
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := &ir.PassManager{}
	pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(nn); err != nil {
		t.Fatal(err)
	}
	consts := 0
	_, err = lower(nn, Options{AnalysisOnly: true}, func(scratch []float64) {
		consts++
		for s, v := range scratch {
			if v != 0 {
				t.Fatalf("constant %d left %g in scratch slot %d", consts, v, s)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if consts < 1000 {
		t.Fatalf("%d constants checked, want the paper model's thousands", consts)
	}
}

// TestFoldedAddOperands adds a convolution folded onto a short period to
// the network input, which has none: the lowering must bring both to the
// shorter period, so that every slot of the sum, and of the ReLU after
// it, holds a replica of an output or 0 — never one operand's replica
// alone.
func TestFoldedAddOperands(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	weight := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = rng.Float64() - 0.5
		}
		return w
	}
	b := onnx.NewBuilder("folded_add")
	x := b.Input("x", 1, 1, 4, 4)
	y := b.Conv(x, b.Weight("w1", weight(4, 1, 3, 3)), b.Weight("b1", weight(4)), 1, 1)
	y = b.Conv(b.Relu(y), b.Weight("w2", weight(1, 4, 3, 3)), b.Weight("b2", weight(1)), 1, 1)
	b.Output(b.Relu(b.Add(y, x)), 1, 1, 4, 4)
	nn, err := nnir.Import(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lower(nn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = rng.Float64()*2 - 1
	}
	want, err := nnir.Run(nn.Main(), map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	packed, _ := res.InLayout.Pack(in.Data)
	v, err := Run(res.Module.Main(), packed)
	if err != nil {
		t.Fatal(err)
	}
	l := res.OutLayout.L
	var errs []error
	for p := 16; p < l; p <<= 1 {
		if errs = append(errs, checkReplicas(v, res.OutLayout, want.Data, p, 1e-9)); errs[len(errs)-1] == nil {
			return
		}
	}
	t.Fatalf("the sum is not replicated with any period below %d: %v", l, errs)
}

func TestVectorLenAuto(t *testing.T) {
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := &ir.PassManager{}
	pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(nn); err != nil {
		t.Fatal(err)
	}
	l, err := VectorLen(nn.Main())
	if err != nil {
		t.Fatal(err)
	}
	if l&(l-1) != 0 || l < 4*64 {
		t.Fatalf("vector length %d implausible", l)
	}
	// Residues are taken as masks, so a forced length must be a power
	// of two as well.
	if _, err := Lower(nn, Options{VectorLen: 3 * l}); err == nil || !strings.Contains(err.Error(), "not a power of two") {
		t.Fatalf("vector length %d lowered: %v", 3*l, err)
	}
	if _, err := Lower(nn, Options{VectorLen: 2 * l}); err != nil {
		t.Fatalf("vector length %d: %v", 2*l, err)
	}
}

func TestAnalyzeCounts(t *testing.T) {
	m, _ := onnx.BuildLinear(16, 4, 9)
	nn, _ := nnir.Import(m)
	res, err := Lower(nn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(res.Module.Main())
	if s.Mults == 0 {
		t.Fatal("no multiplications counted")
	}
	if s.DistinctRotations > s.Rotations {
		t.Fatal("distinct rotations exceed total rotations")
	}
}
