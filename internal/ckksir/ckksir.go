// Package ckksir implements the CKKS IR, where the scheme-independent
// SIHE operations are committed to RNS-CKKS: the pass assigns exact
// levels and scales to every value, inserts rescaling and modulus
// switching, plans minimal-level bootstrapping at the paper's positions
// (before each ReLU), selects the security parameters automatically
// (Table 10), and performs the rotation-key analysis behind the paper's
// memory savings (Figure 7).
package ckksir

import (
	"fmt"
	"math"
	"sort"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/poly"
	"antace/internal/sihe"
)

// Op names.
const (
	OpAdd       = "ckks.add"
	OpAddPlain  = "ckks.add_plain"
	OpMulPlain  = "ckks.mul_plain"
	OpMul       = "ckks.mul"
	OpRelin     = "ckks.relin"
	OpRescale   = "ckks.rescale"
	OpRotate    = "ckks.rotate"
	OpModSwitch = "ckks.modswitch"
	OpEncode    = "ckks.encode"
	OpMulConst  = "ckks.mul_const"
	OpPoly      = "ckks.poly"
	OpBootstrap = "ckks.bootstrap"
	// OpReinterpret divides the declared scale by attribute "factor"
	// without touching the data: the plaintext values are multiplied by
	// factor. Free and exact.
	OpReinterpret = "ckks.reinterpret"
)

func init() {
	C := []ir.Kind{ir.KindCipher}
	C3 := []ir.Kind{ir.KindCipher3}
	P := []ir.Kind{ir.KindPlain}
	V := []ir.Kind{ir.KindVector}
	ir.RegisterOp(ir.OpSpec{Name: OpAdd, Args: [][]ir.Kind{C, C}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpAddPlain, Args: [][]ir.Kind{C, P}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpMulPlain, Args: [][]ir.Kind{C, P}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpMul, Args: [][]ir.Kind{C, C}, Result: ir.KindCipher3})
	ir.RegisterOp(ir.OpSpec{Name: OpRelin, Args: [][]ir.Kind{C3}, Result: ir.KindCipher})
	ir.RegisterOp(ir.OpSpec{Name: OpRescale, Args: [][]ir.Kind{{ir.KindCipher, ir.KindCipher3}}, Result: ir.KindInvalid})
	ir.RegisterOp(ir.OpSpec{Name: OpRotate, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"k"}})
	ir.RegisterOp(ir.OpSpec{Name: OpModSwitch, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"down"}})
	ir.RegisterOp(ir.OpSpec{Name: OpEncode, Args: [][]ir.Kind{V}, Result: ir.KindPlain, RequiredAttrs: []string{"level", "scale"}})
	ir.RegisterOp(ir.OpSpec{Name: OpMulConst, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"c", "const_scale"}})
	ir.RegisterOp(ir.OpSpec{Name: OpPoly, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"coeffs", "target"}})
	ir.RegisterOp(ir.OpSpec{Name: OpBootstrap, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"target"}})
	ir.RegisterOp(ir.OpSpec{Name: OpReinterpret, Args: [][]ir.Kind{C}, Result: ir.KindCipher, RequiredAttrs: []string{"factor"}})
}

// Kernels is the CKKS dialect's op table over the shared slot kernels.
// Relinearisation, rescaling, modulus switching and bootstrapping only
// move level and scale: the ideal slot values pass through. Dividing the
// declared scale by "factor" (reinterpret) multiplies the decoded value
// by it.
var Kernels = map[string]ir.SlotKernel{
	OpAdd:         ir.SlotAdd,
	OpAddPlain:    ir.SlotAdd,
	OpMul:         ir.SlotMul,
	OpMulPlain:    ir.SlotMul,
	OpRotate:      ir.SlotRotate,
	OpEncode:      ir.SlotIdentity,
	OpMulConst:    ir.SlotScale("c"),
	OpReinterpret: ir.SlotScale("factor"),
	OpPoly:        ir.SlotPoly,
	OpRelin:       ir.SlotIdentity,
	OpRescale:     ir.SlotIdentity,
	OpModSwitch:   ir.SlotIdentity,
	OpBootstrap:   ir.SlotIdentity,
}

// Run executes a CKKS IR function slotwise on cleartext float64 slots.
// Every op the compiler emits is elementwise or a cyclic rotation, so the
// run is exact: no noise, the compiled polynomials themselves, the
// identity an ideal bootstrap computes. That exactness carries the
// bit-identity proof behind batching: lane b of Run(batch.Transform(mod,
// S), packed) and Run(mod, input_b) perform the same float64 operations
// in the same order on every logical slot, so the differential tests
// assert == rather than closeness.
func Run(f *ir.Func, input []float64) ([]float64, error) {
	out, err := ir.RunSlots(f, input, Kernels, nil)
	if err != nil {
		return nil, fmt.Errorf("ckksir: %w", err)
	}
	return out, nil
}

// BootstrapMode selects the bootstrapping policy.
type BootstrapMode int

const (
	// BootstrapAuto bootstraps when the circuit is deeper than
	// MaxNoBootstrapDepth.
	BootstrapAuto BootstrapMode = iota
	// BootstrapNever sizes the chain for the whole circuit.
	BootstrapNever
	// BootstrapAlways bootstraps before every ReLU.
	BootstrapAlways
)

// Options configures the CKKS lowering.
type Options struct {
	// LogQ0 is the bit size of the output modulus q0 (paper: 60).
	LogQ0 int
	// LogScale is the compute-level scale (paper Table 10: 56; smaller
	// values shrink the chain for test-scale runs).
	LogScale int
	// Mode selects the bootstrapping policy.
	Mode BootstrapMode
	// MaxNoBootstrapDepth is the Auto-mode threshold.
	MaxNoBootstrapDepth int
	// Boot configures the bootstrapping circuit.
	Boot bootstrap.Parameters
	// ExpertSlack adds spare levels to the chain and refreshes to the
	// chain top instead of the minimal level — the Expert baseline's
	// bootstrapping behaviour.
	ExpertSlack int
	// IgnoreSecurity skips the 128-bit security floor on LogN (reduced-
	// scale functional tests only; production compiles must not set it).
	IgnoreSecurity bool
	// ForceLogN overrides the ring degree (0 = automatic).
	ForceLogN int
}

func (o Options) withDefaults() Options {
	if o.LogQ0 == 0 {
		o.LogQ0 = 60
	}
	if o.LogScale == 0 {
		o.LogScale = 40
	}
	if o.MaxNoBootstrapDepth == 0 {
		o.MaxNoBootstrapDepth = 24
	}
	return o
}

// Result carries the lowered module and everything the runtime needs.
type Result struct {
	Module  *ir.Module
	Literal ckks.ParametersLiteral
	// Boot is non-nil when the program contains bootstrap operations.
	Boot *bootstrap.Parameters
	// InputLevel is the level at which the client must encrypt.
	InputLevel int
	// InputScale is the scale at which the client must encode.
	InputScale float64
	// Rotations lists the distinct rotation amounts used by the program
	// (bootstrapping adds its own on top; see the vm package).
	Rotations []int
	// RotationLevels maps each rotation amount to the highest level it is
	// used at: the key generator only needs switching-key digits up to
	// that level (the data-flow key analysis behind Figure 7).
	RotationLevels map[int]int
	// Bootstraps counts bootstrap operations.
	Bootstraps int
	// Depth statistics from planning.
	SegmentDepths []int
	TargetLevel   int
}

// plan simulates the SIHE program and returns the depth of every
// bootstrap segment: segment 0 runs from the input to the first ReLU
// normalisation (inclusive), segment i>0 from bootstrap i's output
// through the next normalisation (or the function end).
func plan(f *ir.Func, boot bool) ([]int, error) {
	depth := map[*ir.Value]int{}
	for _, p := range f.Params {
		depth[p] = 0
	}
	var segments []int
	cur := func(v *ir.Value) int { return depth[v] }
	for _, in := range f.Body {
		switch in.Op {
		case sihe.OpAdd, sihe.OpSub:
			d := cur(in.Args[0])
			if len(in.Args) > 1 && in.Args[1].Type.Kind == ir.KindCipher {
				if d2 := cur(in.Args[1]); d2 > d {
					d = d2
				}
			}
			depth[in.Result] = d
		case sihe.OpRotate, sihe.OpNeg, sihe.OpEncode:
			depth[in.Result] = cur(in.Args[0])
		case sihe.OpMulConst:
			d := cur(in.Args[0]) + 1
			if in.Attr("relu_norm") != nil && boot {
				segments = append(segments, d)
				d = 0
				// The emission redirects the pre-bootstrap ReLU input to
				// the refreshed ciphertext; its depth resets too.
				depth[in.Args[0]] = 0
			}
			depth[in.Result] = d
		case sihe.OpPoly:
			p, err := poly.FromAttrs(in.Attrs)
			if err != nil {
				return nil, err
			}
			depth[in.Result] = cur(in.Args[0]) + sihe.StageDepth(p)
		case sihe.OpMul:
			d := cur(in.Args[0])
			if in.Args[1].Type.Kind == ir.KindCipher {
				if d2 := cur(in.Args[1]); d2 > d {
					d = d2
				}
			}
			depth[in.Result] = d + 1
		default:
			return nil, fmt.Errorf("ckksir: cannot plan op %q", in.Op)
		}
	}
	segments = append(segments, depth[f.Ret])
	return segments, nil
}

// specialPrimeBits is the size of every special prime: one bit above the
// largest chain prime, so a special modulus of K primes exceeds every
// key-switching digit (a product of K chain primes).
const specialPrimeBits = 61

// specialPrimes returns the number of special primes K for a chain of
// chainLen primes when the security bound leaves room for at most `most`
// of them. Hybrid key switching cuts the chain into ceil(chainLen/K)
// digits of K primes: each digit costs a lift into all chainLen+K rows
// (decompose, inner product), each special prime a row of the closing
// division, so the work falls with K while digits outnumber the primes
// in one and rises after — K is the smallest count with K*K >= chainLen,
// the balanced point, which is where the measured sweep bottoms out
// (EXPERIMENTS.md, "key-switch digit sweep"). Never fewer than two.
func specialPrimes(chainLen, most int) int {
	k := 2
	for k*k < chainLen && k < most {
		k++
	}
	return k
}

// dftStages picks how many stage matrices the two bootstrapping DFTs are
// factorised into. A stage more cuts a transform's diagonals from about
// 2·r to about 2·√r per stage and adds a 60-bit prime to the chain, which
// every part of the circuit above it then carries and every evaluation
// key grows by. So the rule prices one bootstrap to the given target
// level under every pair of stage counts — the chain each pair needs, the
// special modulus that chain gets — in the key-switching work units the
// cost model calibrates (kswork), times the size of an evaluation key
// over that chain: a prime is bought only where the bootstrap gets
// cheaper by more than the keys a client uploads and a server holds get
// larger. The smallest product wins, fewer stages on a tie. Stage counts
// bp already fixes are kept. special reports, for a chain `extra` primes
// longer than the shortest (one stage each), the special-prime count it
// gets and whether the ring degree has room for it at all: like the
// special modulus, stages fill spare room and never buy a larger ring.
func dftStages(bp bootstrap.Parameters, logN, target int, special func(extra int) (k int, fits bool)) bootstrap.Parameters {
	pick := func(fixed, stages int) bool { return fixed == 0 || fixed == stages }
	best, bestWork := bp.WithDefaults(), math.Inf(1)
	for c2s := 1; c2s <= kswork.MaxStages && c2s < logN; c2s++ {
		for s2c := 1; s2c <= kswork.MaxStages && s2c < logN; s2c++ {
			k, fits := special(c2s + s2c - 2)
			if !fits || !pick(bp.C2SStages, c2s) || !pick(bp.S2CStages, s2c) {
				continue
			}
			cand := bp
			cand.C2SStages, cand.S2CStages = c2s, s2c
			cand = cand.WithDefaults()
			g := kswork.Geometry{LogN: logN, K: k}
			top := target + bootstrap.CircuitDepth(cand)
			if w := bootstrapWork(g, target, cand) * g.KeyCoeffs(top); w < bestWork {
				best, bestWork = cand, w
			}
		}
	}
	return best
}

// bootstrapWork counts the key-switching work of one bootstrap to the
// target level, step by step of its schedule.
func bootstrapWork(g kswork.Geometry, target int, bp bootstrap.Parameters) float64 {
	var work kswork.Work
	for _, s := range bootstrap.Schedule(bp, g.LogN, target) {
		work = work.Plus(stepWork(g, s).Times(float64(s.Count)))
	}
	return work.Units()
}

// stepWork counts one step of the bootstrap schedule: a stage matrix as
// the fused transform runs it, EvalMod's relinearisations each at the
// level its evaluation plan puts it, and one key switch for the
// conjugation or a double angle.
func stepWork(g kswork.Geometry, s bootstrap.Step) kswork.Work {
	switch s.Kind {
	case bootstrap.StepC2S, bootstrap.StepS2C:
		return g.LinearTransform(s.Diags, s.Level)
	case bootstrap.StepEvalMod:
		var w kswork.Work
		s.Plan.Walk(func(st poly.Step, depth int) {
			if st == poly.StepRelin {
				w = w.Plus(g.KeySwitch(s.Level - depth))
			}
		})
		return w
	}
	return g.KeySwitch(s.Level)
}

// SelectParameters derives the parameter literal from the planned
// segment depths (the paper's automatic security parameter selection):
// the chain, the ring degree, the special modulus and, for a program
// that bootstraps, the bootstrapping circuit with its DFT stage counts
// (nil otherwise).
func SelectParameters(segments []int, slots int, opts Options) (ckks.ParametersLiteral, int, *bootstrap.Parameters, error) {
	opts = opts.withDefaults()
	target := 0
	for i, d := range segments {
		if i > 0 || len(segments) == 1 {
			if d > target {
				target = d
			}
		}
	}
	// Ensure the first segment fits too: the input level is segments[0],
	// which must not exceed the compute region.
	if segments[0] > target {
		target = segments[0]
	}
	target += opts.ExpertSlack

	// chain lays out q0, the compute levels and the levels of a bootstrap
	// circuit (nil: none).
	chain := func(bp *bootstrap.Parameters) (logQ []int, bits int) {
		logQ = append(logQ, opts.LogQ0)
		for i := 0; i < target; i++ {
			logQ = append(logQ, opts.LogScale)
		}
		if bp != nil {
			for i, depth := 0, bootstrap.CircuitDepth(*bp); i < depth; i++ {
				logQ = append(logQ, 60)
			}
		}
		for _, b := range logQ {
			bits += b
		}
		return logQ, bits
	}
	// The ring degree is set by the shortest chain — one stage per DFT —
	// under the smallest special modulus; more stages and a larger special
	// modulus only fill what that degree leaves spare.
	var boot *bootstrap.Parameters
	if len(segments) > 1 {
		one := opts.Boot
		one.C2SStages, one.S2CStages = 1, 1
		boot = &one
	}
	shortest, shortestBits := chain(boot)
	logN := ckks.MinLogN(shortestBits + 2*specialPrimeBits)
	// Slot requirement: N/2 >= slots.
	minLogN := 1
	for (1 << (minLogN - 1)) < slots {
		minLogN++
	}
	if opts.IgnoreSecurity {
		logN = minLogN
	} else if minLogN > logN {
		logN = minLogN
	}
	if opts.ForceLogN != 0 {
		logN = opts.ForceLogN
	}
	// special sizes the special modulus of the chain `extra` 60-bit primes
	// longer than the shortest, and reports whether two special primes
	// still fit beside it (the shortest chain is taken as it comes).
	special := func(extra int) (k int, fits bool) {
		primes, most := len(shortest)+extra, len(shortest)+extra
		if !opts.IgnoreSecurity {
			most = (ckks.MaxLogQP(logN) - shortestBits - 60*extra) / specialPrimeBits
		}
		return specialPrimes(primes, most), most >= 2 || extra == 0
	}
	extra := 0
	if boot != nil {
		bp := dftStages(opts.Boot, logN, target, special)
		boot, extra = &bp, bp.C2SStages+bp.S2CStages-2
	}
	logQ, chainBits := chain(boot)
	k, _ := special(extra)
	logP := make([]int, k)
	for i := range logP {
		logP[i] = specialPrimeBits
	}
	lit := ckks.ParametersLiteral{
		LogN:     logN,
		LogQ:     logQ,
		LogP:     logP,
		LogScale: opts.LogScale,
	}
	if logN > 17 {
		logQP := chainBits + len(logP)*specialPrimeBits
		return lit, 0, nil, fmt.Errorf("ckksir: required LogN %d exceeds the supported maximum 17 (logQP=%d)", logN, logQP)
	}
	return lit, target, boot, nil
}

// Lower converts a SIHE module into a CKKS module with exact level and
// scale assignment.
func Lower(sm *ir.Module, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	src := sm.Main()
	if src == nil {
		return nil, fmt.Errorf("ckksir: empty module")
	}
	slots := src.Params[0].Type.Len()

	// Decide bootstrapping policy from a no-bootstrap plan.
	flat, err := plan(src, false)
	if err != nil {
		return nil, err
	}
	totalDepth := flat[0]
	useBoot := false
	switch opts.Mode {
	case BootstrapNever:
	case BootstrapAlways:
		useBoot = true
	case BootstrapAuto:
		useBoot = totalDepth > opts.MaxNoBootstrapDepth
	}
	segments, err := plan(src, useBoot)
	if err != nil {
		return nil, err
	}
	if len(segments) == 1 {
		useBoot = false
	}

	lit, target, boot, err := SelectParameters(segments, slots, opts)
	if err != nil {
		return nil, err
	}
	// Scale planning needs the chain's primes only; they are drawn before
	// the special ones, so leaving those out changes none of them.
	qPrimes, _, err := ckks.GeneratePrimes(ckks.ParametersLiteral{LogN: lit.LogN, LogQ: lit.LogQ})
	if err != nil {
		return nil, err
	}

	st := &lowerState{
		opts:    opts,
		q:       qPrimes,
		scale:   math.Exp2(float64(lit.LogScale)),
		target:  target,
		useBoot: useBoot,
		boot:    boot,
	}
	mod, err := st.emit(sm, src)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Module:         mod,
		Literal:        lit,
		Boot:           st.boot,
		InputLevel:     segments[0],
		InputScale:     st.scale,
		Rotations:      st.rotationList(),
		RotationLevels: st.rotationLevels,
		Bootstraps:     st.bootstraps,
		SegmentDepths:  segments,
		TargetLevel:    target,
	}
	mod.Attrs["ckks.input_level"] = res.InputLevel
	mod.Attrs["ckks.input_scale"] = res.InputScale
	return res, nil
}

type lowerState struct {
	opts    Options
	q       []uint64
	scale   float64
	target  int
	useBoot bool
	boot    *bootstrap.Parameters

	rotations      map[int]bool
	rotationLevels map[int]int
	bootstraps     int
}

func (st *lowerState) rotationList() []int {
	out := make([]int, 0, len(st.rotations))
	for k := range st.rotations {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// emit walks the SIHE body and produces the CKKS function.
func (st *lowerState) emit(sm *ir.Module, src *ir.Func) (*ir.Module, error) {
	st.rotations = map[int]bool{}
	st.rotationLevels = map[int]int{}
	mod := ir.NewModule(sm.Name)
	for k, v := range sm.Attrs {
		mod.Attrs[k] = v
	}
	f := mod.NewFunc(src.Name)
	n := src.Params[0].Type.Len()
	ct := ir.CipherType(n)
	c3t := ir.Type{Kind: ir.KindCipher3, Shape: []int{n}}
	pt := ir.PlainType(n)
	vt := ir.VectorType(n)

	inLevel := 0
	// The input level is the first segment's depth; recompute.
	segs, err := plan(src, st.useBoot)
	if err != nil {
		return nil, err
	}
	inLevel = segs[0]
	if st.opts.ExpertSlack > 0 {
		inLevel = st.target // experts encrypt at the top of the chain
	}

	param := f.NewParam(src.Params[0].Name, ct)
	param.Level = inLevel
	param.Scale = st.scale
	vals := map[*ir.Value]*ir.Value{src.Params[0]: param}

	// vectorConst resolves a SIHE plain value back to its vector payload.
	vectorConst := func(v *ir.Value) ([]float64, error) {
		if v.Def == nil || v.Def.Op != sihe.OpEncode {
			return nil, fmt.Errorf("ckksir: plain value %s is not an encode result", v)
		}
		c, ok := v.Def.Args[0].Const.([]float64)
		if !ok {
			return nil, fmt.Errorf("ckksir: encode argument is not a vector constant")
		}
		return c, nil
	}
	encodeAt := func(vec []float64, name string, level int, scale float64) *ir.Value {
		cv := f.NewConst(name, vt, vec)
		p := f.Emit(OpEncode, pt, []*ir.Value{cv}, map[string]any{"level": level, "scale": scale})
		p.Level = level
		p.Scale = scale
		return p
	}
	rescale := func(x *ir.Value, exactScale float64) *ir.Value {
		out := f.Emit(OpRescale, x.Type, []*ir.Value{x}, nil)
		out.Level = x.Level - 1
		out.Scale = exactScale
		return out
	}
	drop := func(x *ir.Value, to int) *ir.Value {
		if x.Level == to {
			return x
		}
		if x.Level < to {
			panic("ckksir: drop below current level")
		}
		out := f.Emit(OpModSwitch, ct, []*ir.Value{x}, map[string]any{"down": x.Level - to})
		out.Level = to
		out.Scale = x.Scale
		return out
	}
	qAt := func(level int) float64 {
		if level < 0 || level >= len(st.q) {
			panic(fmt.Sprintf("ckksir: level %d outside chain of %d", level, len(st.q)))
		}
		return float64(st.q[level])
	}

	for _, in := range src.Body {
		a := vals[in.Args[0]]
		if in.Args[0].Type.Kind == ir.KindCipher && a == nil {
			return nil, fmt.Errorf("ckksir: %s input not lowered", in.Op)
		}
		switch in.Op {
		case sihe.OpAdd, sihe.OpSub:
			if in.Op == sihe.OpSub {
				return nil, fmt.Errorf("ckksir: sihe.sub not produced by the current pipeline")
			}
			b := in.Args[1]
			if b.Type.Kind == ir.KindPlain {
				vec, err := vectorConst(b)
				if err != nil {
					return nil, err
				}
				p := encodeAt(vec, b.Name, a.Level, a.Scale)
				out := f.Emit(OpAddPlain, ct, []*ir.Value{a, p}, nil)
				out.Level, out.Scale = a.Level, a.Scale
				vals[in.Result] = out
				continue
			}
			bb := vals[b]
			if bb == nil {
				return nil, fmt.Errorf("ckksir: add operand not lowered")
			}
			level := min(a.Level, bb.Level)
			aa := drop(a, level)
			bb = drop(bb, level)
			if rel := math.Abs(aa.Scale/bb.Scale - 1); rel > 1e-9 {
				return nil, fmt.Errorf("ckksir: internal scale mismatch at add: %g vs %g", aa.Scale, bb.Scale)
			}
			out := f.Emit(OpAdd, ct, []*ir.Value{aa, bb}, nil)
			out.Level, out.Scale = level, aa.Scale
			vals[in.Result] = out

		case sihe.OpMul:
			b := in.Args[1]
			if b.Type.Kind == ir.KindPlain {
				// Ciphertext x plaintext: encode so the rescale lands
				// exactly on the waterline scale.
				vec, err := vectorConst(b)
				if err != nil {
					return nil, err
				}
				ptScale := st.scale * qAt(a.Level) / a.Scale
				p := encodeAt(vec, b.Name, a.Level, ptScale)
				prod := f.Emit(OpMulPlain, ct, []*ir.Value{a, p}, nil)
				prod.Level, prod.Scale = a.Level, a.Scale*ptScale
				vals[in.Result] = rescale(prod, st.scale)
				continue
			}
			// Ciphertext x ciphertext (the ReLU final product).
			h := vals[b]
			if h == nil {
				return nil, fmt.Errorf("ckksir: mul operand not lowered")
			}
			level := min(a.Level, h.Level)
			aa := drop(a, level)
			hh := drop(h, level)
			prod := f.Emit(OpMul, c3t, []*ir.Value{aa, hh}, nil)
			prod.Level, prod.Scale = level, aa.Scale*hh.Scale
			rl := f.Emit(OpRelin, ct, []*ir.Value{prod}, nil)
			rl.Level, rl.Scale = level, prod.Scale
			out := rescale(rl, prod.Scale/qAt(level))
			// The ReLU path coordinates h's target so this is exactly the
			// waterline; assert.
			if in.Attr("relu_final") != nil {
				if rel := math.Abs(out.Scale/st.scale - 1); rel > 1e-9 {
					return nil, fmt.Errorf("ckksir: relu product scale %g missed the waterline %g", out.Scale, st.scale)
				}
				out.Scale = st.scale
			}
			vals[in.Result] = out

		case sihe.OpNeg:
			out := f.Emit(OpMulConst, ct, []*ir.Value{a}, map[string]any{"c": -1.0, "const_scale": 1.0})
			out.Level, out.Scale = a.Level, a.Scale
			vals[in.Result] = out

		case sihe.OpRotate:
			k := in.AttrInt("k", 0)
			st.rotations[k] = true
			if a.Level > st.rotationLevels[k] {
				st.rotationLevels[k] = a.Level
			}
			out := f.Emit(OpRotate, ct, []*ir.Value{a}, map[string]any{"k": k})
			out.Level, out.Scale = a.Level, a.Scale
			vals[in.Result] = out

		case sihe.OpEncode:
			// Encodes are materialised at their use sites.
			vals[in.Result] = nil

		case sihe.OpMulConst:
			c := in.AttrFloat("c", 1)
			isNorm := in.Attr("relu_norm") != nil
			cs := st.scale * qAt(a.Level) / a.Scale
			out := f.Emit(OpMulConst, ct, []*ir.Value{a}, map[string]any{"c": c, "const_scale": cs})
			out.Level, out.Scale = a.Level, a.Scale*cs
			out = rescale(out, st.scale)
			if isNorm && st.useBoot {
				out = drop(out, 0)
				bt := f.Emit(OpBootstrap, ct, []*ir.Value{out}, map[string]any{"target": st.target})
				bt.Level, bt.Scale = st.target, st.scale
				st.bootstraps++
				// Reconstruct x = y*bound for the final product, for free.
				bound := in.AttrFloat("bound", 0)
				if bound > 0 {
					xr := f.Emit(OpReinterpret, ct, []*ir.Value{bt}, map[string]any{"factor": bound})
					xr.Level, xr.Scale = bt.Level, bt.Scale/bound
					// Redirect later uses of the pre-bootstrap x.
					vals[in.Args[0]] = xr
				}
				out = bt
			}
			vals[in.Result] = out

		case sihe.OpPoly:
			p, err := poly.FromAttrs(in.Attrs)
			if err != nil {
				return nil, err
			}
			depth := sihe.StageDepth(p)
			outLevel := a.Level - depth
			if outLevel < 0 {
				return nil, fmt.Errorf("ckksir: level underflow in polynomial stage (have %d, need %d)", a.Level, depth)
			}
			target := st.scale
			if in.Attr("relu_last") != nil {
				// Coordinate with the final product: after the product at
				// outLevel rescales, it must land exactly on the
				// waterline.
				xVal := st.findReluInput(src, in, vals)
				if xVal != nil {
					target = st.scale * qAt(outLevel) / xVal.Scale
				}
			}
			attrs := p.Attrs()
			attrs["target"] = target
			out := f.Emit(OpPoly, ct, []*ir.Value{a}, attrs)
			out.Level, out.Scale = outLevel, target
			vals[in.Result] = out

		default:
			return nil, fmt.Errorf("ckksir: cannot lower %q", in.Op)
		}
	}
	ret := vals[src.Ret]
	if ret == nil {
		return nil, fmt.Errorf("ckksir: return value not lowered")
	}
	f.Ret = ret
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return mod, nil
}

// findReluInput locates the x operand of the relu_final product that
// consumes this last polynomial stage, returning its lowered value (the
// post-bootstrap reinterpretation when present).
func (st *lowerState) findReluInput(src *ir.Func, stage *ir.Instr, vals map[*ir.Value]*ir.Value) *ir.Value {
	for _, in := range src.Body {
		if in.Attr("relu_final") == nil {
			continue
		}
		if in.Args[1] == stage.Result {
			return vals[in.Args[0]]
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// PlanDebug exposes the segment planner for diagnostics and tests.
func PlanDebug(f *ir.Func, boot bool) ([]int, error) { return plan(f, boot) }
