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
	// The fold period of each value's replicas (see emitConv); l is none.
	periods := map[*ir.Value]int{src.Params[0]: l}

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
		period := periods[in.Args[0]] // pointwise ops keep their input's
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
			ly := lays[in.Args[1]]
			if !li.Equal(ly) {
				return nil, fmt.Errorf("vecir: add with mismatched layouts %s vs %s", li, ly)
			}
			// Operands folded onto different periods are brought to the
			// shorter one first; otherwise a slot could hold one
			// operand's replica without the other's.
			py := periods[in.Args[1]]
			to := min(period, py)
			x, y := lw.fold(x, period, to), lw.fold(vals[in.Args[1]], py, to)
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
		vals[in.Result] = out
		periods[in.Result] = period
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
	scratch []float64 // AnalysisOnly's one mask buffer, all zeros between constants
}

// constVec emits a constant vector that fill writes into zeros; fill with
// reset must zero exactly the slots it wrote. Under AnalysisOnly fill runs
// into one reused scratch vector, which reset then clears, and the
// payload is a unique one-element stub: CSE keys on content, so every
// mask must stay distinct.
func (lw *lowering) constVec(name string, fill func(v []float64, reset bool)) *ir.Value {
	if lw.opts.AnalysisOnly {
		if lw.scratch == nil {
			lw.scratch = make([]float64, lw.l)
		}
		fill(lw.scratch, false)
		fill(lw.scratch, true)
		lw.stubSeq++
		return lw.f.NewConst(name, lw.vt, []float64{float64(lw.stubSeq)})
	}
	v := make([]float64, lw.l)
	fill(v, false)
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
// derived from the offset set by foldSplit. The result holds every
// output at all its replicas (slots congruent to it mod P) and 0 in
// every other slot; the returned period says which.
func (lw *lowering) emitConv(x *ir.Value, li, lo *Layout, w, bias *tensor.Tensor, stride, pad int) (*ir.Value, int, error) {
	cOut, cIn, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if cIn > li.C {
		return nil, 0, fmt.Errorf("vecir: conv consumes %d channels, layout has %d", cIn, li.C)
	}
	// A tap with an empty output range reads only padding: no diagonal.
	var taps []tap
	seen := map[int]bool{}
	for co := 0; co < cOut; co++ {
		base := lo.Slot(co, 0, 0)
		for ci := 0; ci < cIn; ci++ {
			for ky := 0; ky < kh; ky++ {
				y0, y1 := tensor.ValidRange(ky, stride, pad, lo.H, li.H)
				for kx := 0; kx < kw && y0 < y1; kx++ {
					x0, x1 := tensor.ValidRange(kx, stride, pad, lo.W, li.W)
					wv := w.At(co, ci, ky, kx) / li.Gain
					if wv == 0 || x0 == x1 {
						continue
					}
					t := offset(li, ci, ky-pad, kx-pad, lo, co)
					taps = append(taps, tap{t, base, y0, y1, x0, x1, wv})
					seen[t] = true
				}
			}
		}
	}
	if len(taps) == 0 {
		return nil, 0, fmt.Errorf("vecir: convolution with all-zero weights")
	}
	outs := make([]int, 0, cOut*lo.H*lo.W)
	for co := 0; co < cOut; co++ {
		for yo := 0; yo < lo.H; yo++ {
			for xo := 0; xo < lo.W; xo++ {
				outs = append(outs, lo.Slot(co, yo, xo))
			}
		}
	}
	// The offset set and the output slots alone decide the fold and the
	// split; masks exist only for the residues of the chosen period.
	p, m := lw.l, lw.l
	if lw.opts.Conv != ConvNaive {
		p, m = foldSplit(sortedKeys(seen), outs, lw.l)
	}
	// Each residue's taps, in tap order: a mask is filled just before it
	// is emitted, so one is live at a time.
	byResidue := map[int][]tap{}
	for _, tp := range taps {
		byResidue[tp.t%p] = append(byResidue[tp.t%p], tp)
	}

	// Emit: baby rotations shared by every giant group, then one masked
	// inner sum and one giant rotation per group, then the fold.
	residues := sortedKeys(byResidue)
	groups := map[int][]int{} // g -> its residues, ascending
	babies := map[int]*ir.Value{}
	for _, r := range residues {
		b, g := bsgsSplit(r, m, p, lw.l)
		groups[g] = append(groups[g], r)
		babies[b] = nil
	}
	for _, b := range sortedKeys(babies) {
		babies[b] = lw.roll(x, b)
	}
	var acc *ir.Value
	for _, g := range sortedKeys(groups) {
		var sum *ir.Value
		for _, r := range groups[g] {
			b, _ := bsgsSplit(r, m, p, lw.l)
			mask := lw.constVec(fmt.Sprintf("mask_r%d_s%d", g, b), func(v []float64, reset bool) {
				fillMask(v, byResidue[r], b, lo, reset)
			})
			sum = lw.add(sum, lw.mul(babies[b], mask))
		}
		acc = lw.add(acc, lw.roll(sum, g))
	}
	acc = lw.fold(acc, lw.l, p)
	if bias != nil {
		// At every replica, so that no slot holds a partial sum.
		acc = lw.add(acc, lw.constVec("bias", func(v []float64, reset bool) {
			for i, s := range outs {
				for ; s < lw.l; s += p {
					if reset {
						v[s] = 0
					} else {
						v[s] += bias.Data[i/(lo.H*lo.W)]
					}
				}
			}
		}))
	}
	return acc, p, nil
}

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
// v[s+k]). With reset it zeroes those slots instead.
func fillMask(v []float64, taps []tap, b int, lo *Layout, reset bool) {
	l := len(v)
	for _, tp := range taps {
		start := tp.base + (tp.t-b+l)%l + tp.x0*lo.Sx
		for yo := tp.y0; yo < tp.y1; yo++ {
			i := (start + yo*lo.Sy*lo.W0) % l
			for xo := tp.x0; xo < tp.x1; xo++ {
				if reset {
					v[i] = 0
				} else {
					v[i] += tp.w
				}
				if i += lo.Sx; i >= l {
					i -= l
				}
			}
		}
	}
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

// bsgsSplit decomposes offset t under baby/giant modulus m and fold
// period p into the baby b = centred residue of t mod m, reduced mod l,
// and the giant g = t − b reduced mod p. The fold sums every residue
// class mod p, so the roll identity only needs b + g ≡ t (mod p).
func bsgsSplit(t, m, p, l int) (b, g int) {
	b = (t+m/2)%m - m/2
	return ((b % l) + l) % l, (((t - b) % p) + p) % p
}

// bsgsRotations counts the non-zero rotations modulus m issues for an
// offset set under fold period p: distinct babies plus distinct giants.
func bsgsRotations(offsets []int, m, p, l int) int {
	babies, giants := map[int]bool{}, map[int]bool{}
	for _, t := range offsets {
		b, g := bsgsSplit(t, m, p, l)
		babies[b], giants[g] = true, true
	}
	delete(babies, 0)
	delete(giants, 0)
	return len(babies) + len(giants)
}

// bsgsModulus derives a layer's baby/giant split from its offset set
// (each in [0, p)) under fold period p: among the power-of-two moduli
// M ≤ p it returns the one whose split issues the fewest rotations, and
// that count, the larger M on a tie (more rotations of the layer input
// itself, which layers reading the same value share). M = 1 is all
// giants, M = p all babies — what ConvNaive forces at p = l. Rotation
// count is the price at this level: the ring is not chosen yet and the
// runtime executes a baby and a giant as the same key switch.
func bsgsModulus(offsets []int, p, l int) (m, rotations int) {
	m, rotations = 1, bsgsRotations(offsets, 1, p, l)
	for mm := 2; mm <= p; mm <<= 1 {
		if r := bsgsRotations(offsets, mm, p, l); r <= rotations {
			m, rotations = mm, r
		}
	}
	return m, rotations
}

// distinctMod reports whether the slots are pairwise distinct mod p.
func distinctMod(slots []int, p int) bool {
	seen := make([]bool, p)
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
// p = l is the unfolded lowering.
func foldSplit(offsets, outs []int, l int) (p, m int) {
	p = l
	m, bestRot := bsgsModulus(offsets, l, l)
	bestMasks := len(offsets)
	for q, folds := l/2, 1; q >= len(outs) && distinctMod(outs, q); q, folds = q/2, folds+1 {
		hit := make([]bool, q)
		for _, t := range offsets {
			hit[t%q] = true
		}
		var reduced []int
		for r, h := range hit {
			if h {
				reduced = append(reduced, r)
			}
		}
		mq, rot := bsgsModulus(reduced, q, l)
		if rot += folds; rot < bestRot || rot == bestRot && len(reduced) < bestMasks {
			p, m, bestRot, bestMasks = q, mq, rot, len(reduced)
		}
	}
	return p, m
}

func sortedKeys[V any](m map[int]V) []int {
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
