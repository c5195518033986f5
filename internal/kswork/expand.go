package kswork

import "antace/internal/poly"

// The CKKS instructions, as compiled programs name them (ckksir
// registers them as IR ops) and the bootstrap circuit runs them.
const (
	OpAdd         = "ckks.add"
	OpAddPlain    = "ckks.add_plain"
	OpMulPlain    = "ckks.mul_plain"
	OpMul         = "ckks.mul"
	OpRelin       = "ckks.relin"
	OpRescale     = "ckks.rescale"
	OpRotate      = "ckks.rotate"
	OpLinear      = "ckks.linear"
	OpModSwitch   = "ckks.modswitch"
	OpEncode      = "ckks.encode"
	OpMulConst    = "ckks.mul_const"
	OpPoly        = "ckks.poly"
	OpBootstrap   = "ckks.bootstrap"
	OpReinterpret = "ckks.reinterpret"
	// OpModRaise is the bootstrap's mod raise: a level-0 ciphertext
	// re-read modulo the chain up to a higher level. No program runs it.
	OpModRaise = "ckks.mod_raise"
)

// The POLY primitives, as the POLY IR names them ("hw_" marks those that
// map to accelerator instructions, as in the paper's Table 7). Expand
// emits the first nine. The last two are the halves of decomp_modup,
// which the POLY IR shows apart until its operator fusion joins them.
const (
	PolyNTT          = "poly.hw_ntt"
	PolyINTT         = "poly.hw_intt"
	PolyModAdd       = "poly.hw_modadd"
	PolyModMul       = "poly.hw_modmul"
	PolyAutomorphism = "poly.hw_rotate" // NTT-domain automorphism permutation
	PolyDecompModUp  = "poly.decomp_modup"
	PolyModMulAdd    = "poly.hw_modmuladd"
	PolyModDown      = "poly.mod_down"
	// PolyMaskSum is a linear transform's masked inner sums: per giant
	// group, every mask multiplied into its baby and accumulated lazily.
	// It is hw_modmuladd's arithmetic, counted in its units, but it runs
	// inside the transform and the runtime times no call of its own.
	PolyMaskSum = "poly.mask_sum"
	PolyDecomp  = "poly.decomp"
	PolyModUp   = "poly.mod_up"
)

// planOps names the instruction each step of a polynomial's evaluation
// plan runs as.
var planOps = [...]string{
	poly.StepMul:      OpMul,
	poly.StepRelin:    OpRelin,
	poly.StepRescale:  OpRescale,
	poly.StepMulConst: OpMulConst,
	poly.StepAdd:      OpAdd,
	poly.StepAddConst: OpAddPlain,
}

// Prim is Count calls of one primitive, each over Rows residue rows. The
// fused kernels and the mask sums carry Units, the work of all Count
// calls in the kernel's units (ModUp, MulAdd, ModDown); the transforms
// and pointwise passes are measured by their rows alone.
type Prim struct {
	Op    string
	Rows  int
	Count int
	Units float64
}

// Expand emits the primitives of instruction op entering at level, in the
// order the runtime runs them: a linear transform by its split s, a
// polynomial by its evaluation plan pl, every other instruction by its
// name alone. It reports whether it knows op. An encode and a bootstrap
// are expanded by the program walk (ckksir.Walk), which knows the
// plaintext's rows and the bootstrap circuit.
//
// Every case follows the evaluator (package ckks) call by call:
//   - add: one addition per half; add_plain: a copy and one addition
//     into c0;
//   - mul_plain and mul_const: one product per half; mul: three passes,
//     c0·c0', the lazily reduced c0·c1' + c1·c0', and c1·c1';
//   - relin: a key switch of c2, then c0 + d0 and c1 + d1;
//   - rotate: a key switch of c1, its digits permuted inside the key
//     product, then c0 permuted and d0 added;
//   - rescale: ring.DivRoundByLastModulusNTT on each half;
//   - linear: ckks.EvaluateBSGS;
//   - poly: every step of the plan as the instruction it runs as, at the
//     level the plan puts it: a constant as add_plain's one pass into c0,
//     a sum of two degree-2 ciphertexts as three additions;
//   - mod_raise, expanded at the level it raises to (it enters at 0):
//     per half, the level-0 row back to coefficients, then every raised
//     row forward (ckks.Evaluator.ModRaise);
//   - modswitch and reinterpret move no data.
func (g Geometry) Expand(op string, level int, s Split, pl *poly.Plan, emit func(Prim)) bool {
	e := expansion{g, emit}
	r := level + 1
	switch op {
	case OpAdd:
		e.pass(PolyModAdd, r, 2)
	case OpAddPlain:
		e.pass(PolyModAdd, r, 1)
	case OpMulPlain, OpMulConst:
		e.pass(PolyModMul, r, 2)
	case OpMul:
		e.pass(PolyModMul, r, 3)
	case OpRelin:
		e.keySwitch(level)
		e.pass(PolyModAdd, r, 2)
	case OpRotate:
		e.keySwitch(level)
		e.pass(PolyAutomorphism, r, 1)
		e.pass(PolyModAdd, r, 1)
	case OpRescale:
		e.rescale(level)
	case OpLinear:
		e.linear(s, level)
	case OpPoly:
		pl.Walk(func(st poly.Step, depth int) {
			if st == poly.StepAddQuadratic {
				e.pass(PolyModAdd, level-depth+1, 3)
				return
			}
			g.Expand(planOps[st], level-depth, Split{}, nil, emit)
		})
	case OpModRaise:
		e.pass(PolyINTT, 1, 2)
		e.pass(PolyNTT, r, 2)
	case OpModSwitch, OpReinterpret:
	default:
		return false
	}
	return true
}

// expansion emits the primitives of one instruction.
type expansion struct {
	g    Geometry
	emit func(Prim)
}

// pass emits count transforms or pointwise passes over rows rows.
func (e expansion) pass(op string, rows, count int) {
	if count > 0 {
		e.emit(Prim{Op: op, Rows: rows, Count: count})
	}
}

// kernel emits count calls of a fused kernel over rows rows, doing units
// of work each.
func (e expansion) kernel(op string, rows, count int, units float64) {
	if count > 0 {
		e.emit(Prim{Op: op, Rows: rows, Count: count, Units: float64(count) * units})
	}
}

// decompose emits times decompositions of a polynomial entering at level
// (ckks.decomposeForKeySwitch): back to coefficients, then one
// decomp_modup call over every digit.
func (e expansion) decompose(level, times int) {
	e.pass(PolyINTT, level+1, times)
	e.kernel(PolyDecompModUp, level+1+e.g.K, times, e.g.ModUp(level))
}

// keySwitch emits one hybrid key switch entering at level: a
// decomposition, one evaluation-key product, both halves divided by P in
// one mod_down call.
func (e expansion) keySwitch(level int) {
	e.decompose(level, 1)
	e.kernel(PolyModMulAdd, level+1+e.g.K, 1, e.g.MulAdd(level))
	e.kernel(PolyModDown, level+1, 1, e.g.ModDown(level))
}

// rescale emits the division of both halves by the last prime of a
// ciphertext entering at level: per half, the dropped row back to
// coefficients, then on every remaining row the correction transformed
// forward, reduced (a pass), subtracted and scaled (a pass).
func (e expansion) rescale(level int) {
	e.pass(PolyINTT, 1, 2)
	e.pass(PolyNTT, level, 2)
	e.pass(PolyModAdd, level, 2)
	e.pass(PolyModMul, level, 2)
}

// linear emits the baby-step/giant-step transform of split s entering at
// level as ckks.EvaluateBSGS runs it. The input is lifted by P (its c1
// only for a b = 0 baby). The baby rotations share one decomposition,
// take a key product each that stays over Q∪P, and add the permuted
// lifted c0. Every giant group's masks are summed into it (the mask sums:
// per mask, half and row one multiply-accumulate, over Q∪P, or over Q
// alone against the b = 0 baby). Each giant rotation permutes its group's
// c0 half and adds it into the running sum over Q∪P, divides the c1 half
// by P, permutes it, decomposes it and adds its key product into the same
// sum, which is divided by P once at the end and rescaled.
func (e expansion) linear(s Split, level int) {
	g := e.g
	r, rk := level+1, level+1+g.K
	e.pass(PolyModMul, r, 1)
	if s.ZeroMasks > 0 {
		e.pass(PolyModMul, r, 1)
	}
	if s.Babies > 0 {
		e.decompose(level, 1)
	}
	e.kernel(PolyModMulAdd, rk, s.Babies, g.MulAdd(level))
	e.pass(PolyAutomorphism, r, s.Babies)
	e.pass(PolyModAdd, r, s.Babies)

	groups := s.Giants + 1
	perGroup := func(masks int) float64 { return float64(groups) * MAC((masks+groups-1)/groups) }
	rows := float64(r)*perGroup(s.Masks) + float64(g.K)*perGroup(s.Masks-s.ZeroMasks)
	e.emit(Prim{Op: PolyMaskSum, Rows: rk, Count: groups, Units: 2 * g.n() * rows})

	e.pass(PolyAutomorphism, rk, s.Giants)
	e.pass(PolyModAdd, rk, s.Giants)
	e.kernel(PolyModDown, r, s.Giants, g.ModDown(level)/2)
	e.pass(PolyAutomorphism, r, s.Giants)
	e.decompose(level, s.Giants)
	e.kernel(PolyModMulAdd, rk, s.Giants, g.MulAdd(level))
	e.kernel(PolyModDown, r, 1, g.ModDown(level))
	e.rescale(level)
}
