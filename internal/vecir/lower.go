package vecir

import (
	"fmt"
	"sort"

	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/tensor"
)

// Op names.
const (
	OpAdd  = "vec.add"
	OpMul  = "vec.mul"
	OpRoll = "vec.roll"
	OpRelu = "vec.relu"
	// OpNonlinear is a pointwise nonlinearity approximated at the SIHE
	// level: attrs "kind" (sigmoid|tanh) and "bound" (input range).
	OpNonlinear = "vec.nonlinear"
)

func init() {
	V := []ir.Kind{ir.KindVector}
	ir.RegisterOp(ir.OpSpec{Name: OpAdd, Args: [][]ir.Kind{V, V}, Result: ir.KindVector})
	ir.RegisterOp(ir.OpSpec{Name: OpMul, Args: [][]ir.Kind{V, V}, Result: ir.KindVector})
	ir.RegisterOp(ir.OpSpec{Name: OpRoll, Args: [][]ir.Kind{V}, Result: ir.KindVector, RequiredAttrs: []string{"k"}})
	ir.RegisterOp(ir.OpSpec{Name: OpRelu, Args: [][]ir.Kind{V}, Result: ir.KindVector, RequiredAttrs: []string{"bound"}})
	ir.RegisterOp(ir.OpSpec{Name: OpNonlinear, Args: [][]ir.Kind{V}, Result: ir.KindVector, RequiredAttrs: []string{"kind", "bound"}})
}

// ConvMode selects where the BSGS convolution structure splits each
// weight offset into a shared baby rotation and a per-diagonal giant
// rotation. The decomposition rv + sj = channel displacement + spatial
// offset is algebraically symmetric, so either component can play
// either role; the two-level modes trade which rotations are shared
// across diagonals (babies, hoisted on the layer input) against which
// are issued once per accumulated diagonal (giants). The plan
// enumerator in internal/core compiles a candidate per mode and ranks
// them under the calibrated cost model.
type ConvMode int

const (
	// ConvChannelGiant is the default two-level structure: spatial
	// offsets are the shared baby rotations, cross-channel diagonal
	// displacements the giant rotations.
	ConvChannelGiant ConvMode = iota
	// ConvSpatialGiant swaps the roles: channel displacements become the
	// shared babies, spatial offsets the giants.
	ConvSpatialGiant
	// ConvNaive folds both components into one rotation per distinct
	// total offset, as a hand-written implementation without diagonal
	// grouping would issue — the Expert baseline's structure.
	ConvNaive
)

func (m ConvMode) String() string {
	switch m {
	case ConvSpatialGiant:
		return "spatial-giant"
	case ConvNaive:
		return "naive"
	}
	return "channel-giant"
}

// ConvModes lists every enumerable convolution structure.
func ConvModes() []ConvMode { return []ConvMode{ConvChannelGiant, ConvSpatialGiant, ConvNaive} }

// Options configures the lowering.
type Options struct {
	// VectorLen forces the slot-vector length (0 selects the smallest
	// power of two that fits the widest layer).
	VectorLen int
	// Conv selects the BSGS split point of the convolution lowering.
	Conv ConvMode
	// DefaultReLUBound bounds |x| at ReLU inputs when no calibrated
	// bound attribute is present on the nn.relu instruction.
	DefaultReLUBound float64
	// AnalysisOnly discards mask payloads after constructing them,
	// keeping unique one-element stubs: the compiled module retains its
	// exact structure (instruction counts, rotations, levels) for the
	// figure/table analyses at paper scale, but cannot be executed.
	// Compile timing is unaffected — the masks are still built.
	AnalysisOnly bool
}

// Result carries the lowered module plus the packings of its boundary.
type Result struct {
	Module    *ir.Module
	InLayout  *Layout
	OutLayout *Layout
}

// VectorLen simulates the layout evolution of an NN IR function and
// returns the smallest power-of-two vector length that fits every layer.
func VectorLen(f *ir.Func) (int, error) {
	need := 0
	update := func(lay *Layout) {
		if n := lay.Blocks() * lay.H0 * lay.W0; n > need {
			need = n
		}
	}
	layouts := map[*ir.Value]*Layout{}
	in, err := inputLayout(f)
	if err != nil {
		return 0, err
	}
	layouts[f.Params[0]] = in
	update(in)
	big := 1 << 30
	in.L = big // temporarily unconstrained
	for _, instr := range f.Body {
		lay, err := resultLayout(instr, layouts)
		if err != nil {
			return 0, err
		}
		if lay != nil {
			layouts[instr.Result] = lay
			update(lay)
		}
	}
	return nextPow2(need), nil
}

func nextPow2(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}

// inputLayout derives the initial layout from the function's parameter.
func inputLayout(f *ir.Func) (*Layout, error) {
	if len(f.Params) != 1 {
		return nil, fmt.Errorf("vecir: expected a single input, have %d", len(f.Params))
	}
	sh := f.Params[0].Type.Shape
	switch len(sh) {
	case 4: // (1, C, H, W)
		return NewInputLayout(sh[1], sh[2], sh[3], 1<<30)
	case 2: // (1, F): F channels of 1x1
		return NewInputLayout(sh[1], 1, 1, 1<<30)
	}
	return nil, fmt.Errorf("vecir: unsupported input shape %v", sh)
}

// resultLayout computes the layout an op produces (shape analysis only;
// shared by VectorLen and the real lowering).
func resultLayout(in *ir.Instr, layouts map[*ir.Value]*Layout) (*Layout, error) {
	li := layouts[in.Args[0]]
	switch in.Op {
	case nnir.OpConv:
		w := in.Args[1].Const.(*tensor.Tensor)
		stride := in.AttrInt("stride", 1)
		if stride == 1 {
			return li.WithChannels(w.Shape[0])
		}
		return li.Downsample(stride, w.Shape[0])
	case nnir.OpAvgPool:
		k := in.AttrInt("kernel", 1)
		s := in.AttrInt("stride", 1)
		if k != s {
			return nil, fmt.Errorf("vecir: average_pool with kernel %d != stride %d unsupported", k, s)
		}
		out, err := li.Downsample(s, li.C)
		if err != nil {
			return nil, err
		}
		out.Gain = li.Gain * float64(k*k)
		return out, nil
	case nnir.OpGlobalPool:
		out := *li
		out.H, out.W = 1, 1
		out.Gain = li.Gain * float64(li.H*li.W)
		return &out, nil
	case nnir.OpGemm:
		w := in.Args[1].Const.(*tensor.Tensor)
		classes := w.Shape[0]
		if in.AttrInt("transB", 0) == 0 {
			classes = w.Shape[1]
		}
		return &Layout{
			C: classes, H: 1, W: 1,
			H0: li.H0, W0: li.W0,
			Sy: li.H0, Sx: li.W0,
			L: li.L, Gain: 1,
		}, nil
	case nnir.OpRelu, nnir.OpSigmoid, nnir.OpTanh, nnir.OpAdd:
		out := *li
		return &out, nil
	case nnir.OpFlatten, nnir.OpReshape:
		out := *li
		return &out, nil
	case nnir.OpBatchNorm:
		return nil, fmt.Errorf("vecir: batch_norm must be fused before lowering")
	}
	return nil, fmt.Errorf("vecir: cannot lower op %q", in.Op)
}

// Lower converts an NN IR module into a VECTOR IR module.
func Lower(nn *ir.Module, opts Options) (*Result, error) {
	src := nn.Main()
	if src == nil {
		return nil, fmt.Errorf("vecir: empty module")
	}
	if opts.DefaultReLUBound == 0 {
		opts.DefaultReLUBound = 40
	}
	l := opts.VectorLen
	if l == 0 {
		var err error
		l, err = VectorLen(src)
		if err != nil {
			return nil, err
		}
	}

	mod := ir.NewModule(nn.Name)
	f := mod.NewFunc(src.Name)
	vt := ir.VectorType(l)
	inLay, err := inputLayout(src)
	if err != nil {
		return nil, err
	}
	inLay.L = l
	if need := inLay.Blocks() * inLay.H0 * inLay.W0; need > l {
		return nil, fmt.Errorf("vecir: vector length %d below input need %d", l, need)
	}

	lw := &lowering{f: f, l: l, vt: vt, opts: opts}
	vals := map[*ir.Value]*ir.Value{src.Params[0]: f.NewParam(src.Params[0].Name, vt)}
	lays := map[*ir.Value]*Layout{src.Params[0]: inLay}

	for _, in := range src.Body {
		li := lays[in.Args[0]]
		x := vals[in.Args[0]]
		if li == nil || x == nil {
			return nil, fmt.Errorf("vecir: %s input not lowered", in.Op)
		}
		lo, err := resultLayout(in, lays)
		if err != nil {
			return nil, err
		}
		lo.L = l
		var out *ir.Value
		switch in.Op {
		case nnir.OpConv:
			w := in.Args[1].Const.(*tensor.Tensor)
			var bias *tensor.Tensor
			if len(in.Args) == 3 {
				bias = in.Args[2].Const.(*tensor.Tensor)
			}
			out, err = lw.emitConv(x, li, lo, w, bias, in.AttrInt("stride", 1), in.AttrInt("pad", 0))
		case nnir.OpAvgPool:
			// Depthwise sum (the 1/k^2 is folded into the layout gain).
			k := in.AttrInt("kernel", 1)
			w := tensor.New(li.C, li.C, k, k)
			for c := 0; c < li.C; c++ {
				for i := 0; i < k*k; i++ {
					w.Data[(c*li.C+c)*k*k+i] = 1 * li.Gain // emitConv divides by Gain
				}
			}
			out, err = lw.emitConv(x, li, lo, w, nil, k, 0)
		case nnir.OpGlobalPool:
			out = lw.emitGlobalSum(x, li)
		case nnir.OpGemm:
			w := in.Args[1].Const.(*tensor.Tensor)
			if in.AttrInt("transB", 0) == 0 {
				w = w.Transpose()
			}
			var bias *tensor.Tensor
			if len(in.Args) == 3 {
				bias = in.Args[2].Const.(*tensor.Tensor)
			}
			// Express the FC layer as a 1x1 convolution over the (C,1,1)
			// channel layout.
			wc := tensor.FromData(w.Data, w.Shape[0], w.Shape[1], 1, 1)
			out, err = lw.emitConv(x, li, lo, wc, bias, 1, 0)
		case nnir.OpRelu:
			bound := in.AttrFloat("bound", opts.DefaultReLUBound)
			out = f.Emit(OpRelu, vt, []*ir.Value{x}, map[string]any{"bound": bound * li.Gain})
		case nnir.OpSigmoid, nnir.OpTanh:
			if li.Gain != 1 {
				return nil, fmt.Errorf("vecir: %s through a pending gain is unsupported", in.Op)
			}
			kind := "sigmoid"
			if in.Op == nnir.OpTanh {
				kind = "tanh"
			}
			bound := in.AttrFloat("bound", opts.DefaultReLUBound)
			out = f.Emit(OpNonlinear, vt, []*ir.Value{x}, map[string]any{"kind": kind, "bound": bound})
		case nnir.OpAdd:
			ly := lays[in.Args[1]]
			if !li.Equal(ly) {
				return nil, fmt.Errorf("vecir: add with mismatched layouts %s vs %s", li, ly)
			}
			out = f.Emit(OpAdd, vt, []*ir.Value{x, vals[in.Args[1]]}, nil)
		case nnir.OpFlatten, nnir.OpReshape:
			if in.Result.Type.Len() != li.C*li.H*li.W {
				return nil, fmt.Errorf("vecir: reshape changing element count unsupported")
			}
			out = x
		default:
			return nil, fmt.Errorf("vecir: cannot lower %q", in.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("vecir: lowering %s: %w", in.Op, err)
		}
		if in.Op == nnir.OpConv || in.Op == nnir.OpGemm {
			// emitConv folds the input gain into its weights.
			lo.Gain = 1
		}
		vals[in.Result] = out
		lays[in.Result] = lo
	}
	f.Ret = vals[src.Ret]
	outLay := lays[src.Ret]
	if f.Ret == nil || outLay == nil {
		return nil, fmt.Errorf("vecir: return value not lowered")
	}
	mod.Attrs["vec.len"] = l
	mod.Attrs["vec.in_layout"] = inLay
	mod.Attrs["vec.out_layout"] = outLay
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return &Result{Module: mod, InLayout: inLay, OutLayout: outLay}, nil
}

type lowering struct {
	f       *ir.Func
	l       int
	vt      ir.Type
	opts    Options
	stubSeq int
}

func (lw *lowering) constVec(name string, v []float64) *ir.Value {
	if lw.opts.AnalysisOnly {
		lw.stubSeq++
		// A unique one-element stub: CSE keys on content, so every mask
		// must stay distinct.
		v = []float64{float64(lw.stubSeq)}
	}
	return lw.f.NewConst(name, lw.vt, v)
}

func (lw *lowering) roll(x *ir.Value, k int) *ir.Value {
	if k == 0 {
		return x
	}
	return lw.f.Emit(OpRoll, lw.vt, []*ir.Value{x}, map[string]any{"k": k})
}

func (lw *lowering) add(a, b *ir.Value) *ir.Value {
	if a == nil {
		return b
	}
	return lw.f.Emit(OpAdd, lw.vt, []*ir.Value{a, b}, nil)
}

func (lw *lowering) mul(a, b *ir.Value) *ir.Value {
	return lw.f.Emit(OpMul, lw.vt, []*ir.Value{a, b}, nil)
}

// emitConv lowers a convolution (stride s, pad p) from layout li to lo.
// Weights are OIHW; the input's pending gain is divided out.
func (lw *lowering) emitConv(x *ir.Value, li, lo *Layout, w, bias *tensor.Tensor, stride, pad int) (*ir.Value, error) {
	cOut, cIn, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if cIn > li.C {
		return nil, fmt.Errorf("vecir: conv consumes %d channels, layout has %d", cIn, li.C)
	}
	mod := func(v int) int {
		v %= lw.l
		if v < 0 {
			v += lw.l
		}
		return v
	}
	// masks[rv][sj] accumulates weights at (output slot + rv).
	masks := map[int]map[int][]float64{}
	addMask := func(rv, sj, slot int, v float64) {
		inner, ok := masks[rv]
		if !ok {
			inner = map[int][]float64{}
			masks[rv] = inner
		}
		m, ok := inner[sj]
		if !ok {
			m = make([]float64, lw.l)
			inner[sj] = m
		}
		m[slot] += v
	}
	for co := 0; co < cOut; co++ {
		bo, pyo, pxo := lo.phase(co)
		for ci := 0; ci < cIn; ci++ {
			bi, pyi, pxi := li.phase(ci)
			rvRaw := (bi-bo)*li.H0*li.W0 + (pyi-pyo)*li.W0 + pxi - pxo
			for ky := 0; ky < kh; ky++ {
				dy := ky - pad
				for kx := 0; kx < kw; kx++ {
					dx := kx - pad
					wv := w.At(co, ci, ky, kx) / li.Gain
					if wv == 0 {
						continue
					}
					sjRaw := dy*li.Sy*li.W0 + dx*li.Sx
					var rv, sj int
					switch lw.opts.Conv {
					case ConvSpatialGiant:
						// Swapped split: channel displacements become the
						// shared babies, spatial offsets the giants. The
						// roll identity only needs rv+sj ≡ rvRaw+sjRaw
						// (mod l), so the assignment of components to
						// roles is free.
						rv, sj = mod(sjRaw), mod(rvRaw)
					case ConvNaive:
						// One rotation per total offset: fold the channel
						// displacement into the spatial one.
						rv, sj = 0, mod(rvRaw+sjRaw)
					default:
						rv, sj = mod(rvRaw), mod(sjRaw)
					}
					for yo := 0; yo < lo.H; yo++ {
						iy := yo*stride + dy
						if iy < 0 || iy >= li.H {
							continue
						}
						for xo := 0; xo < lo.W; xo++ {
							ix := xo*stride + dx
							if ix < 0 || ix >= li.W {
								continue
							}
							addMask(rv, sj, mod(lo.Slot(co, yo, xo)+rv), wv)
						}
					}
				}
			}
		}
	}

	// Emit: baby rotations shared across all diagonals.
	sjSet := map[int]bool{}
	for _, inner := range masks {
		for sj := range inner {
			sjSet[sj] = true
		}
	}
	babies := map[int]*ir.Value{}
	for _, sj := range sortedKeys(sjSet) {
		babies[sj] = lw.roll(x, sj)
	}
	rvs := make([]int, 0, len(masks))
	for rv := range masks {
		rvs = append(rvs, rv)
	}
	sort.Ints(rvs)
	var acc *ir.Value
	for _, rv := range rvs {
		inner := masks[rv]
		var sum *ir.Value
		for _, sj := range sortedMapKeys(inner) {
			m := lw.constVec(fmt.Sprintf("mask_r%d_s%d", rv, sj), inner[sj])
			sum = lw.add(sum, lw.mul(babies[sj], m))
		}
		if rv != 0 {
			// Masks were laid out at (output slot + rv); the giant
			// rotation brings them home: roll(v, rv)[s] = v[s+rv].
			sum = lw.roll(sum, rv)
		}
		acc = lw.add(acc, sum)
	}
	if acc == nil {
		return nil, fmt.Errorf("vecir: convolution with all-zero weights")
	}
	if bias != nil {
		bv := make([]float64, lw.l)
		for co := 0; co < cOut; co++ {
			for yo := 0; yo < lo.H; yo++ {
				for xo := 0; xo < lo.W; xo++ {
					bv[lo.Slot(co, yo, xo)] += bias.Data[co]
				}
			}
		}
		acc = lw.add(acc, lw.constVec("bias", bv))
	}
	return acc, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedMapKeys(m map[int][]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// emitGlobalSum reduces every channel's spatial extent to position (0,0)
// with a logarithmic rotate-and-add tree (the division by H*W is carried
// in the layout gain).
func (lw *lowering) emitGlobalSum(x *ir.Value, li *Layout) *ir.Value {
	cur := x
	for step := 1; step < li.H; step <<= 1 {
		cur = lw.add(cur, lw.roll(cur, step*li.Sy*li.W0))
	}
	for step := 1; step < li.W; step <<= 1 {
		cur = lw.add(cur, lw.roll(cur, step*li.Sx))
	}
	return cur
}
