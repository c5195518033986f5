package vecir

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/tensor"
)

// Op names.
const (
	OpAdd  = "vec.add"
	OpMul  = "vec.mul"
	OpRoll = "vec.roll"
	// OpLinear is a linear layer's baby-step/giant-step sum
	// (ir.SlotLinear): the input, then one mask per residue, int-slice
	// attributes "b" and "g".
	OpLinear = "vec.linear"
	OpRelu   = "vec.relu"
	// OpNonlinear is a pointwise nonlinearity approximated at the SIHE
	// level: attrs "kind" (sigmoid|tanh) and "bound" (input range).
	OpNonlinear = "vec.nonlinear"
)

func init() {
	V := []ir.Kind{ir.KindVector}
	ir.RegisterOp(ir.OpSpec{Name: OpAdd, Args: [][]ir.Kind{V, V}, Result: ir.KindVector})
	ir.RegisterOp(ir.OpSpec{Name: OpMul, Args: [][]ir.Kind{V, V}, Result: ir.KindVector})
	ir.RegisterOp(ir.OpSpec{Name: OpRoll, Args: [][]ir.Kind{V}, Result: ir.KindVector, RequiredAttrs: []string{"k"}})
	ir.RegisterOp(ir.OpSpec{Name: OpLinear, Args: [][]ir.Kind{V}, MinArgs: 2, Variadic: V, Result: ir.KindVector, RequiredAttrs: []string{"b", "g"}})
	ir.RegisterOp(ir.OpSpec{Name: OpRelu, Args: [][]ir.Kind{V}, Result: ir.KindVector, RequiredAttrs: []string{"bound"}})
	ir.RegisterOp(ir.OpSpec{Name: OpNonlinear, Args: [][]ir.Kind{V}, Result: ir.KindVector, RequiredAttrs: []string{"kind", "bound"}})
}

// ConvMode selects how a linear layer's diagonals are rotated into
// place. There is one lowering; the modes are two points of its fold
// period and split modulus (see foldSplit).
type ConvMode int

const (
	// ConvBSGS derives the fold period and baby/giant split of each
	// layer from its offset set (the default).
	ConvBSGS ConvMode = iota
	// ConvNaive issues one rotation of the layer input per distinct
	// total offset, as a hand-written implementation without diagonal
	// grouping would — no fold and the split at M = L, kept as the
	// ablation and autotune baseline.
	ConvNaive
)

// Options configures the lowering.
type Options struct {
	// VectorLen forces the slot-vector length (0 selects the smallest
	// power of two that fits the widest layer).
	VectorLen int
	// Conv selects the derived baby/giant split or the naive baseline.
	Conv ConvMode
	// DefaultReLUBound bounds |x| at ReLU inputs when no calibrated
	// bound attribute is present on the nn.relu instruction.
	DefaultReLUBound float64
	// AnalysisOnly keeps unique one-element stubs in place of the mask
	// payloads: the compiled module retains its exact structure
	// (instruction counts, rotations, levels) for the figure/table
	// analyses at paper scale, but cannot be executed. Every mask is
	// still built, into one reused buffer, so compile time counts that
	// work while memory holds one mask, not all of them.
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
	layouts := ir.NewValues[*Layout](f)
	in, err := inputLayout(f)
	if err != nil {
		return 0, err
	}
	layouts.Set(f.Params[0], in)
	update(in)
	big := 1 << 30
	in.L = big // temporarily unconstrained
	for _, instr := range f.Body {
		lay, err := resultLayout(instr, layouts.Get(instr.Args[0]))
		if err != nil {
			return 0, err
		}
		if lay != nil {
			layouts.Set(instr.Result, lay)
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

// resultLayout computes the layout an op produces from its first
// argument's, li (shape analysis only; shared by VectorLen and the real
// lowering).
func resultLayout(in *ir.Instr, li *Layout) (*Layout, error) {
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
func Lower(nn *ir.Module, opts Options) (*Result, error) { return lower(nn, opts, nil) }

// lower is Lower with the lowering's onConst seam (see lowering).
func lower(nn *ir.Module, opts Options, onConst func(scratch []float64)) (*Result, error) {
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
	if l <= 0 || l&(l-1) != 0 {
		return nil, fmt.Errorf("vecir: vector length %d is not a power of two", l)
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

	lw := &lowering{f: f, l: l, vt: vt, opts: opts, onConst: onConst}
	// Each lowered value, its layout and the fold period of its replicas
	// (see emitConv; l is none).
	type lowered struct {
		v      *ir.Value
		lay    *Layout
		period int
	}
	vals := ir.NewValues[lowered](src)
	vals.Set(src.Params[0], lowered{f.NewParam(src.Params[0].Name, vt), inLay, l})

	for _, in := range src.Body {
		xin := vals.Get(in.Args[0])
		x, li := xin.v, xin.lay
		if li == nil || x == nil {
			return nil, fmt.Errorf("vecir: %s input not lowered", in.Op)
		}
		lo, err := resultLayout(in, li)
		if err != nil {
			return nil, err
		}
		lo.L = l
		var out *ir.Value
		period := xin.period // pointwise ops keep their input's
		switch in.Op {
		case nnir.OpConv:
			w := in.Args[1].Const.(*tensor.Tensor)
			var bias *tensor.Tensor
			if len(in.Args) == 3 {
				bias = in.Args[2].Const.(*tensor.Tensor)
			}
			out, period, err = lw.emitConv(x, li, lo, w, bias, in.AttrInt("stride", 1), in.AttrInt("pad", 0))
		case nnir.OpAvgPool:
			// Depthwise sum (the 1/k^2 is folded into the layout gain).
			k := in.AttrInt("kernel", 1)
			w := tensor.New(li.C, li.C, k, k)
			for c := 0; c < li.C; c++ {
				for i := 0; i < k*k; i++ {
					w.Data[(c*li.C+c)*k*k+i] = 1 * li.Gain // emitConv divides by Gain
				}
			}
			out, period, err = lw.emitConv(x, li, lo, w, nil, k, 0)
		case nnir.OpGlobalPool:
			out, period = lw.emitGlobalSum(x, li), l
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
			out, period, err = lw.emitConv(x, li, lo, wc, bias, 1, 0)
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
			yin := vals.Get(in.Args[1])
			if !li.Equal(yin.lay) {
				return nil, fmt.Errorf("vecir: add with mismatched layouts %s vs %s", li, yin.lay)
			}
			// Operands folded onto different periods are brought to the
			// shorter one first; otherwise a slot could hold one
			// operand's replica without the other's.
			to := min(period, yin.period)
			x, y := lw.fold(x, period, to), lw.fold(yin.v, yin.period, to)
			out, period = f.Emit(OpAdd, vt, []*ir.Value{x, y}, nil), to
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
		vals.Set(in.Result, lowered{out, lo, period})
	}
	ret := vals.Get(src.Ret)
	outLay := ret.lay
	f.Ret = ret.v
	if f.Ret == nil || outLay == nil {
		return nil, fmt.Errorf("vecir: return value not lowered")
	}
	mod.Attrs["vec.len"] = l
	mod.Attrs[AttrInLayout] = inLay
	mod.Attrs[AttrOutLayout] = outLay
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return &Result{Module: mod, InLayout: inLay, OutLayout: outLay}, nil
}

// lowering is the state of one Lower call. Its scratch arrays belong to
// that call alone, so concurrent lowerings share nothing.
type lowering struct {
	f       *ir.Func
	l       int
	vt      ir.Type
	opts    Options
	stubSeq int
	scratch []float64        // AnalysisOnly's one mask buffer, all zeros between constants
	split   *rotationCounter // foldSplit's counting arrays, made on first use
	conv    convScratch
	// onConst, if set, sees the scratch buffer after each AnalysisOnly
	// constant has cleared it (tests check that it is all zeros).
	onConst func(scratch []float64)
}

// convScratch holds emitConv's working arrays. Each grows to the largest
// layer of the lowering and is reused by every later one.
type convScratch struct {
	ts        []int         // each tap's total offset, in tap order
	seen      []bool        // offsets hit, over [0, l); all false between layers
	offsets   []int         // the distinct offsets, ascending
	outs      []int         // output slots
	at        []int         // per residue: taps, then where the next one goes
	byResidue []tap         // the taps grouped by residue
	masks     []residueMask // one per residue
}

// resized returns s with length n, reallocated only if its capacity is
// short; the elements are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// constVec emits a constant vector that fill writes into zeros; fill
// returns a span [from, to) of the vector that holds every slot it wrote.
// Under AnalysisOnly fill runs into one reused scratch vector, which is
// then cleared over that span, and the payload is a unique one-element
// stub: CSE keys on content, so every mask must stay distinct.
func (lw *lowering) constVec(name string, fill func(v []float64) (from, to int)) *ir.Value {
	if lw.opts.AnalysisOnly {
		if lw.scratch == nil {
			lw.scratch = make([]float64, lw.l)
		}
		from, to := fill(lw.scratch)
		if from < to {
			clear(lw.scratch[from:to])
		}
		if lw.onConst != nil {
			lw.onConst(lw.scratch)
		}
		lw.stubSeq++
		return lw.f.NewConst(name, lw.vt, []float64{float64(lw.stubSeq)})
	}
	v := make([]float64, lw.l)
	fill(v)
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

// emitConv lowers a convolution (stride s, pad p) from layout li to lo.
// Weights are OIHW; the input's pending gain is divided out.
//
// The layer is a set of diagonals: out[s] = Σ_t W_t[s]·x[s+t] over the
// total slot offsets t (channel displacement + spatial offset), folded
// onto a period P (a power of two under which the output slots are
// pairwise distinct): one mask per residue r = t mod P, where each tap
// lands at the replica s + t − r of its output slot s (the one its input
// reaches at offset r), then log₂(L/P) rotate-and-adds that sum every
// residue class. Each r is
// evaluated as a baby rotation b of the input and a giant rotation g of
// the masked sum, b + g ≡ r (mod P). P and the baby/giant modulus are
// derived from the offset set by foldSplit. The masked sums are one
// vec.linear instruction, the fold vec.roll/vec.add pairs after it, a
// bias one vec.add after those. The result holds every
// output at all its replicas (slots congruent to it mod P) and 0 in
// every other slot; the returned period says which.
func (lw *lowering) emitConv(x *ir.Value, li, lo *Layout, w, bias *tensor.Tensor, stride, pad int) (*ir.Value, int, error) {
	cOut, cIn, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if cIn > li.C {
		return nil, 0, fmt.Errorf("vecir: conv consumes %d channels, layout has %d", cIn, li.C)
	}
	// A kernel row's or column's valid output range depends on its index
	// alone. A tap with an empty range reads only padding: no diagonal.
	type span struct{ from, to int }
	ys, xs := make([]span, kh), make([]span, kw)
	for ky := range ys {
		ys[ky].from, ys[ky].to = tensor.ValidRange(ky, stride, pad, lo.H, li.H)
	}
	for kx := range xs {
		xs[kx].from, xs[kx].to = tensor.ValidRange(kx, stride, pad, lo.W, li.W)
	}
	eachTap := func(visit func(co, ci, ky, kx int, wv float64)) {
		for co := 0; co < cOut; co++ {
			for ci := 0; ci < cIn; ci++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw && ys[ky].from < ys[ky].to; kx++ {
						if wv := w.Data[((co*cIn+ci)*kh+ky)*kw+kx] / li.Gain; wv != 0 && xs[kx].from < xs[kx].to {
							visit(co, ci, ky, kx, wv)
						}
					}
				}
			}
		}
	}
	// Each tap's total offset, in tap order.
	sc := &lw.conv
	ts, seen := sc.ts[:0], resized(sc.seen, lw.l)
	eachTap(func(co, ci, ky, kx int, _ float64) {
		t := offset(li, ci, ky-pad, kx-pad, lo, co)
		ts = append(ts, t)
		seen[t] = true
	})
	sc.ts, sc.seen = ts, seen
	if len(ts) == 0 {
		return nil, 0, fmt.Errorf("vecir: convolution with all-zero weights")
	}
	offsets := sc.offsets[:0]
	for t, hit := range seen {
		if hit {
			offsets = append(offsets, t)
			seen[t] = false
		}
	}
	sc.offsets = offsets
	outs := sc.outs[:0]
	for co := 0; co < cOut; co++ {
		for yo := 0; yo < lo.H; yo++ {
			for xo := 0; xo < lo.W; xo++ {
				outs = append(outs, lo.Slot(co, yo, xo))
			}
		}
	}
	sc.outs = outs
	// The offset set and the output slots alone decide the fold and the
	// split; masks exist only for the residues of the chosen period.
	p, m := lw.l, lw.l
	if lw.opts.Conv != ConvNaive {
		if lw.split == nil {
			lw.split = newRotationCounter(lw.l)
		}
		p, m = foldSplit(lw.split, offsets, outs)
	}
	// Each residue's taps, in tap order: a stable counting sort by t mod p
	// into one array. A mask is filled just before it is emitted, so one
	// is live at a time.
	at := resized(sc.at, p) // taps per residue, then where the next one goes
	clear(at)
	for _, t := range ts {
		at[t&(p-1)]++ // p is a power of two
	}
	masks := sc.masks[:0] // ascending residue
	for r, next := 0, 0; r < p; r++ {
		if c := at[r]; c > 0 {
			b, g := bsgsSplit(r, m, p, lw.l)
			masks = append(masks, residueMask{b, g, next, next + c})
			at[r], next = next, next+c
		}
	}
	byResidue, k := resized(sc.byResidue, len(ts)), 0
	sc.at, sc.masks, sc.byResidue = at, masks, byResidue
	eachTap(func(co, ci, ky, kx int, wv float64) {
		t := ts[k]
		r := t & (p - 1)
		byResidue[at[r]] = tap{t, lo.Slot(co, 0, 0), ys[ky].from, ys[ky].to, xs[kx].from, xs[kx].to, wv}
		at[r]++
		k++
	})

	// One vec.linear: per giant group, ascending, its residues' masks,
	// ascending, each with its baby rotation. Then the fold.
	slices.SortStableFunc(masks, func(a, b residueMask) int { return cmp.Compare(a.g, b.g) })
	args := make([]*ir.Value, 1, 1+len(masks))
	args[0] = x
	babies, giants := make([]int, len(masks)), make([]int, len(masks))
	for i, mk := range masks {
		name := "mask_r" + strconv.Itoa(mk.g) + "_s" + strconv.Itoa(mk.b)
		args = append(args, lw.constVec(name, func(v []float64) (int, int) {
			return fillMask(v, byResidue[mk.from:mk.to], mk.b, lo)
		}))
		babies[i], giants[i] = mk.b, mk.g
	}
	acc := lw.fold(lw.f.Emit(OpLinear, lw.vt, args, map[string]any{"b": babies, "g": giants}), lw.l, p)
	if bias != nil {
		// At every replica, so that no slot holds a partial sum; the
		// replicas run to the end of the vector.
		acc = lw.add(acc, lw.constVec("bias", func(v []float64) (int, int) {
			for i, s := range outs {
				for ; s < len(v); s += p {
					v[s] += bias.Data[i/(lo.H*lo.W)]
				}
			}
			return 0, len(v)
		}))
	}
	return acc, p, nil
}

// residueMask is one mask of a linear layer: residue r = b + g mod the
// fold period, and its taps, byResidue[from:to].
type residueMask struct{ b, g, from, to int }

// A tap is one non-zero weight of a linear layer: its total offset,
// weight and output pixel range depend on (co, ci, ky, kx) only, never on
// the pixel.
type tap struct {
	t, base        int // total offset; slot of output pixel (co, 0, 0)
	y0, y1, x0, x1 int // valid output rows and columns
	w              float64
}

// fillMask adds one residue's taps, in order, into v where the giant
// rotation picks them up: at the replica of the output slot that the
// input rotated by baby b reaches, output slot + t − b (roll(v, k)[s] =
// v[s+k]). Each output row is one run at stride Sx; a row spans fewer
// than len(v) slots, so it wraps past the end of v at most once. It
// returns the span [from, to) of v its runs cover.
func fillMask(v []float64, taps []tap, b int, lo *Layout) (from, to int) {
	l, sx, rowStep := len(v), lo.Sx, lo.Sy*lo.W0
	from = l
	run := func(i, n int, w float64) {
		seg := v[i : i+(n-1)*sx+1]
		for j := 0; j < len(seg); j += sx {
			seg[j] += w
		}
		from, to = min(from, i), max(to, i+len(seg))
	}
	for _, tp := range taps {
		n := tp.x1 - tp.x0
		i := (tp.base + (tp.t-b+l)%l + tp.x0*sx + tp.y0*rowStep) % l
		for yo := tp.y0; yo < tp.y1; yo++ {
			if i+(n-1)*sx < l {
				run(i, n, tp.w)
			} else {
				k := (l - i + sx - 1) / sx // slots before the end of v
				run(i, k, tp.w)
				run(i+k*sx-l, n-k, tp.w)
			}
			if i += rowStep; i >= l {
				i -= l
			}
		}
	}
	return from, to
}

// fold takes a vector holding period-from replicas to period to (both
// powers of two, to ≤ from): every slot gains the sum of the slots
// congruent to it mod to within its period-from window. When the
// outputs are distinct mod to, at most one of those holds a value.
func (lw *lowering) fold(v *ir.Value, from, to int) *ir.Value {
	for step := to; step < from; step <<= 1 {
		v = lw.add(v, lw.roll(v, step))
	}
	return v
}

// bsgsSplit decomposes offset t ≥ 0 under baby/giant modulus m and fold
// period p into the baby b = centred residue of t mod m, reduced mod l,
// and the giant g = t − b reduced mod p. The fold sums every residue
// class mod p, so the roll identity only needs b + g ≡ t (mod p). m, p
// and l are powers of two, so each reduction is a mask (two's
// complement makes it the non-negative residue of a negative b too).
func bsgsSplit(t, m, p, l int) (b, g int) {
	b = (t+m/2)&(m-1) - m/2
	return b & (l - 1), (t - b) & (p - 1)
}

// rotationCounter counts the distinct non-zero babies and giants of a
// split. Each count stamps the slots it sees with a new generation, so
// one pair of arrays serves every candidate modulus and period.
// foldSplit keeps its working arrays here too.
type rotationCounter struct {
	l              int
	babies, giants []uint32 // generation that last saw each rotation
	gen            uint32
	hit            []bool // residues hit, over [0, l/2)
	reduced        []int  // the offsets reduced mod a candidate period
}

func newRotationCounter(l int) *rotationCounter {
	return &rotationCounter{l: l, babies: make([]uint32, l), giants: make([]uint32, l), hit: make([]bool, l/2)}
}

// rotations counts the non-zero rotations modulus m issues for an offset
// set under fold period p: distinct babies plus distinct giants.
func (c *rotationCounter) rotations(offsets []int, m, p int) int {
	if c.gen++; c.gen == 0 { // wrapped: no stamp may look current
		clear(c.babies)
		clear(c.giants)
		c.gen = 1
	}
	n := 0
	for _, t := range offsets {
		b, g := bsgsSplit(t, m, p, c.l)
		if b != 0 && c.babies[b] != c.gen {
			c.babies[b] = c.gen
			n++
		}
		if g != 0 && c.giants[g] != c.gen {
			c.giants[g] = c.gen
			n++
		}
	}
	return n
}

// bsgsModulus derives a layer's baby/giant split from its offset set
// (each in [0, p)) under fold period p: among the power-of-two moduli
// M ≤ p it returns the one whose split issues the fewest rotations, and
// that count, the larger M on a tie (more rotations of the layer input
// itself, which layers reading the same value share). M = 1 is all
// giants, M = p all babies — what ConvNaive forces at p = l. Rotation
// count is the price at this level: the ring is not chosen yet and the
// runtime executes a baby and a giant as the same key switch.
func bsgsModulus(c *rotationCounter, offsets []int, p int) (m, rotations int) {
	m, rotations = 1, c.rotations(offsets, 1, p)
	for mm := 2; mm <= p; mm <<= 1 {
		if r := c.rotations(offsets, mm, p); r <= rotations {
			m, rotations = mm, r
		}
	}
	return m, rotations
}

// distinctMod reports whether the slots are pairwise distinct mod p,
// using seen (at least p long, all false) and leaving it all false.
func distinctMod(seen []bool, slots []int, p int) bool {
	seen = seen[:p]
	defer clear(seen)
	for _, s := range slots {
		if seen[s%p] {
			return false
		}
		seen[s%p] = true
	}
	return true
}

// foldSplit chooses a linear layer's fold period p and baby/giant
// modulus m from its offset set (sorted, in [0, l)) and output slots:
// over the powers of two p ≤ l under which the outputs stay distinct,
// the fewest rotations (the log₂(l/p) fold rotations included), then
// the fewest masks (distinct offsets mod p), the larger p on a tie.
// p = l is the unfolded lowering. c counts rotations in vectors of
// length l.
func foldSplit(c *rotationCounter, offsets, outs []int) (p, m int) {
	l := c.l
	p = l
	m, bestRot := bsgsModulus(c, offsets, l)
	bestMasks := len(offsets)
	reduced := c.reduced[:0]
	for q, folds := l/2, 1; q >= len(outs) && distinctMod(c.hit, outs, q); q, folds = q/2, folds+1 {
		hit := c.hit[:q]
		for _, t := range offsets {
			hit[t%q] = true
		}
		reduced = reduced[:0]
		for r, h := range hit {
			if h {
				reduced = append(reduced, r)
				hit[r] = false
			}
		}
		mq, rot := bsgsModulus(c, reduced, q)
		if rot += folds; rot < bestRot || rot == bestRot && len(reduced) < bestMasks {
			p, m, bestRot, bestMasks = q, mq, rot, len(reduced)
		}
	}
	c.reduced = reduced
	return p, m
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
