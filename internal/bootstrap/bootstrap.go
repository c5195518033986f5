// Package bootstrap implements CKKS bootstrapping: the noise-refreshing
// procedure that takes an exhausted ciphertext at the bottom of the chain
// back to a usable level so that homomorphic evaluation can continue
// indefinitely.
//
// The circuit runs SlotsToCoeffs first, as Chen, Chillotti and Song do
// ("Improved Bootstrapping for Approximate Homomorphic Encryption",
// EUROCRYPT 2019), so that the transform's key switches run on the two or
// three primes at the bottom of the chain instead of just above the
// refresh target; the Han–Ki cosine/double-angle EvalMod removes the
// modular overflow:
//
//  1. SlotsToCoeffs — the forward embedding, entering at level S2CStages
//     and ending at level 0. It writes slot j's real and imaginary parts
//     into coefficients j and N/2+j, at the scale D = q0/messageRatio: a
//     real slot vector z becomes the message m with m_j = z_j·D and a zero
//     second half.
//  2. ModRaise — re-interpret the level-0 ciphertext modulo the chain up
//     to the top, yielding t = m + q0·I with a small integer polynomial I.
//  3. CoeffsToSlots — the inverse embedding moves the coefficient pair
//     (t_j, t_{N/2+j}) into slot j, and ct + conj(ct) keeps its real
//     part, t_j = z_j·D + q0·I_j.
//  4. EvalMod — approximate t mod q0 on each slot with a Chebyshev
//     interpolation of a scaled cosine followed by double-angle steps. Its
//     output is sin(2π·t_j/q0) ≈ 2π·z_j·D/q0, already in the slots; the
//     factor 2π·D/q0 is absorbed into the declared scale, which costs no
//     level.
//
// One EvalMod suffices because the slots are real: their values sit in
// the first coefficient half alone, and the real part after
// CoeffsToSlots drops the second half, whose integer part is never
// refreshed. Bootstrap therefore refreshes the real part of the slots and
// drops the imaginary part.
//
// The two embeddings are the encoder's special FFT, factorised into a few
// sparse stage matrices (ckks.Encoder.DFTStages). How many stages each
// gets is the compiler's decision (ckksir.SelectParameters): a stage more
// shrinks every matrix and costs the chain one more prime.
//
// Following the paper's "minimal-level" strategy (§4.4), Bootstrap can
// refresh to a caller-chosen target level rather than the top of the
// chain, which shrinks every subsequent homomorphic operation.
package bootstrap

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"antace/internal/ckks"
	"antace/internal/kswork"
	"antace/internal/poly"
)

// Parameters configures the bootstrapping circuit.
type Parameters struct {
	// K bounds the coefficients of the integer polynomial I (a function
	// of the secret key density); the EvalMod interpolation covers
	// [-(K+1), K+1] in q0 units. Default 16.
	K int
	// EvalModDegree is the Chebyshev degree of the cosine interpolation.
	// Default 30.
	EvalModDegree int
	// DoubleAngle is the number of angle-doubling iterations. Default 3.
	DoubleAngle int
	// C2SStages and S2CStages are the number of stage matrices
	// CoeffsToSlots and SlotsToCoeffs are factorised into, one level each.
	// Default 2 and 1; the compiler replaces zeros by what its cost rule
	// picks for the ring and chain at hand (ckksir.SelectParameters).
	C2SStages, S2CStages int
}

// WithDefaults fills unset fields with the default configuration.
func (p Parameters) WithDefaults() Parameters { return p.withDefaults() }

// CircuitDepth returns the number of levels the bootstrap circuit for
// this configuration consumes, without instantiating it: the S2C stages
// below the mod raise, and above it the C2S stages, EvalMod's polynomial
// as its evaluation plan runs it and the double angles.
func CircuitDepth(p Parameters) int {
	p = p.withDefaults()
	return p.S2CStages + p.C2SStages + evalModPlan(p).Depth() + p.DoubleAngle
}

// RaiseLevel returns the level the mod raise lifts to in a refresh to the
// target level: the top of the chain the circuit needs. Everything but
// SlotsToCoeffs, which runs below the raise, runs between the two.
func RaiseLevel(p Parameters, target int) int {
	p = p.withDefaults()
	return target + CircuitDepth(p) - p.S2CStages
}

// The circuit runs program instructions, named by kswork (OpAdd, OpMul,
// OpRelin, OpRescale, OpLinear for a DFT stage matrix, OpPoly for
// EvalMod's polynomial), and three that no program runs: the mod raise,
// which kswork expands as itself, and the two below. A conjugation is a
// rotation by the conjugation's Galois element, and adding the double
// angle's −1 is one pass over c0, as adding a plaintext is: Priced names
// the instruction each runs as.
const (
	OpConjugate = "ckks.conjugate"
	OpAddConst  = "ckks.add_const"
)

// Op is one instruction of the bootstrap circuit. The circuit runs on one
// ciphertext x: every op replaces x by its result. An add right after a
// conjugation adds the conjugation's input, ct + conj(ct); any other add
// doubles x.
type Op struct {
	// Name is the instruction (a kswork instruction name, OpConjugate or
	// OpAddConst).
	Name string
	// Level is the level x enters the op at, and To the level the mod
	// raise (kswork.OpModRaise) lifts it to.
	Level, To int
	// Split is a stage matrix's baby-step/giant-step split, and Stage its
	// index among the bootstrapper's stage matrices, in the order the
	// circuit runs them: SlotsToCoeffs' first (kswork.OpLinear).
	Split kswork.Split
	Stage int
	// Plan is EvalMod's evaluation plan (kswork.OpPoly).
	Plan *poly.Plan
}

// Priced returns the program instruction op is priced as: its own name,
// a rotation for a conjugation and a plaintext addition for the constant.
func (op Op) Priced() string {
	switch op.Name {
	case OpConjugate:
		return kswork.OpRotate
	case OpAddConst:
		return kswork.OpAddPlain
	}
	return op.Name
}

// Expand emits the primitives op runs as in geometry g: the expansion
// (kswork.Geometry.Expand) of the instruction it is priced as, at the
// level it enters at, or for the mod raise at the level it lifts to. It
// reports whether kswork knows the instruction.
func (op Op) Expand(g kswork.Geometry, emit func(kswork.Prim)) bool {
	level := op.Level
	if op.Name == kswork.OpModRaise {
		level = op.To
	}
	return g.Expand(op.Priced(), level, op.Split, op.Plan, emit)
}

// Schedule returns the instructions of one bootstrap to the target level
// in a ring of degree 2^logN, in the order Bootstrap runs them and each
// with the level it enters at: the SlotsToCoeffs stages down from level
// S2CStages, the mod raise at level 0 to RaiseLevel, the CoeffsToSlots
// stages down from there, the real part, EvalMod's polynomial and the
// double angles down to the target. The transforms act on all
// 2^(logN-1) slots of the ring. The Bootstrapper runs this list; the
// compiler, the cost model, the POLY IR and the memory figures fold over
// it.
func Schedule(p Parameters, logN, target int) []Op {
	p = p.withDefaults()
	s2c := kswork.StageDiagonals(logN-1, p.S2CStages, false)
	c2s := kswork.StageDiagonals(logN-1, p.C2SStages, true)
	evalMod := evalModPlan(p)
	// Four ops besides the stages and the double angles: the raise, the
	// real part's two and the polynomial.
	ops := make([]Op, 0, len(s2c)+len(c2s)+5*p.DoubleAngle+4)
	level := p.S2CStages
	// emit appends op at the current level and then drops the levels it
	// consumes.
	emit := func(op Op, consumes int) {
		op.Level = level
		ops = append(ops, op)
		level -= consumes
	}
	for i, d := range s2c {
		emit(Op{Name: kswork.OpLinear, Split: kswork.DFTSplit(d), Stage: i}, 1)
	}
	top := RaiseLevel(p, target)
	emit(Op{Name: kswork.OpModRaise, To: top}, -top) // from level 0 to the top
	for i, d := range c2s {
		emit(Op{Name: kswork.OpLinear, Split: kswork.DFTSplit(d), Stage: len(s2c) + i}, 1)
	}
	emit(Op{Name: OpConjugate}, 0)
	emit(Op{Name: kswork.OpAdd}, 0)
	emit(Op{Name: kswork.OpPoly, Plan: evalMod}, evalMod.Depth())
	for range p.DoubleAngle { // y ↦ 2y² − 1
		emit(Op{Name: kswork.OpMul}, 0)
		emit(Op{Name: kswork.OpAdd}, 0)
		emit(Op{Name: OpAddConst}, 0)
		emit(Op{Name: kswork.OpRelin}, 0)
		emit(Op{Name: kswork.OpRescale}, 1)
	}
	return ops
}

// evalModPlan returns the evaluation plan of EvalMod's polynomial: the
// Chebyshev interpolation on [-1,1] of
//
//	h(x) = cos((2*pi*(K+1)*x - pi/2) / 2^DoubleAngle),
//
// where the input normalisation by B = (K+1)*q0/D makes K+1 the frequency
// that restores the true q0-periodicity. It depends on the configuration
// alone, so the schedule prices the very plan the bootstrapper executes.
func evalModPlan(p Parameters) *poly.Plan {
	key := [3]int{p.K, p.EvalModDegree, p.DoubleAngle}
	if pl, ok := evalModPlans.Load(key); ok {
		return pl.(*poly.Plan)
	}
	r := float64(int(1) << p.DoubleAngle)
	h := func(x float64) float64 {
		return math.Cos((2*math.Pi*float64(p.K+1)*x - math.Pi/2) / r)
	}
	pl, _ := evalModPlans.LoadOrStore(key, poly.NewPlan(poly.ChebyshevInterpolate(h, -1, 1, p.EvalModDegree)))
	return pl.(*poly.Plan)
}

// messageRatio returns q0/D, the headroom the message keeps below q0.
// SlotsToCoeffs writes every slot value into a coefficient as it is, so
// a coefficient is as large as the largest slot, |z| <= 1, and the sine
// EvalMod computes, sin(2π·t/q0) ≈ 2π·z·D/q0, is off by its cubic term:
// a relative (2π/R)²/6 at ratio R. EvalMod's own error ε, read with the
// factor R/(2π), grows with the ratio instead. Their sum is least at
// R = 2π/∛(3ε), where ε is the plan's largest error after the double
// angles at the points where t is a multiple of q0, evaluated in
// cleartext. The ratio is the power of two nearest that, and never below
// 256.
func messageRatio(p Parameters) float64 {
	pl := evalModPlan(p)
	eps := 0.0
	for i := -p.K; i <= p.K; i++ {
		y := pl.Poly.Eval(float64(i) / float64(p.K+1))
		for range p.DoubleAngle {
			y = 2*y*y - 1
		}
		eps = math.Max(eps, math.Abs(y)) // sin(2π·i) = 0
	}
	r := 2 * math.Pi / math.Cbrt(3*eps)
	return math.Max(256, math.Exp2(math.Round(math.Log2(r))))
}

// evalModPlans memoises evalModPlan by (K, degree, double angles): the
// compiler asks for the plan of one configuration some fifty times while
// it prices stage counts, and a plan is read-only once built.
var evalModPlans sync.Map

func (p Parameters) withDefaults() Parameters {
	if p.K == 0 {
		p.K = 16
	}
	if p.EvalModDegree == 0 {
		p.EvalModDegree = 30
	}
	if p.DoubleAngle == 0 {
		p.DoubleAngle = 3
	}
	if p.C2SStages == 0 {
		p.C2SStages = 2
	}
	if p.S2CStages == 0 {
		p.S2CStages = 1
	}
	return p
}

// Bootstrapper holds the precomputed stage matrices. It is safe for
// concurrent use by evaluators with distinct key sets: the matrices are
// read-only, and every stage keeps its encoded diagonals in a memo that
// fills on first use, so every machine sharing a bootstrapper encodes
// each diagonal once per (level, scale) rather than on every bootstrap.
type Bootstrapper struct {
	params *ckks.Parameters
	bp     Parameters
	enc    *ckks.Encoder
	s2c    []*ckks.LinearTransform // stages of SF
	c2s    []*ckks.LinearTransform // stages of (1/(2B)) * SFinv

	q0 float64
	d  float64 // the message scale SlotsToCoeffs ends on, q0/messageRatio
	// scale is the scale ciphertexts are bootstrapped at and come back at.
	scale float64

	// circuitScale is the working scale of CoeffsToSlots. The circuit's
	// levels should carry primes of about this size (the top of the chain,
	// typically ~2^60): large primes keep the encoded DFT matrices and
	// EvalMod constants precise, and matching the scale to the prime size
	// keeps rescaling scale-stable.
	circuitScale float64
}

// NewBootstrapper precomputes the bootstrapping circuit for the given
// parameters. The scale is the one ciphertexts carry when Bootstrap is
// called and the one it returns them at (typically params.DefaultScale(),
// the program's waterline).
func NewBootstrapper(params *ckks.Parameters, bp Parameters, scale float64) (*Bootstrapper, error) {
	bp = bp.withDefaults()
	if scale == 0 {
		scale = params.DefaultScale()
	}
	q0 := float64(params.Q()[0])
	d := q0 / messageRatio(bp)
	// EvalMod input bound: |t|/d <= (q0*(K+1))/d; normalised by B so the
	// Chebyshev domain is [-1,1].
	b := float64(bp.K+1) * q0 / d

	bt := &Bootstrapper{
		params:       params,
		bp:           bp,
		enc:          ckks.NewEncoder(params),
		q0:           q0,
		d:            d,
		scale:        scale,
		circuitScale: float64(params.Q()[params.MaxLevel()]),
	}
	var err error
	if bt.s2c, err = bt.enc.DFTStages(false, bp.S2CStages, 1); err != nil {
		return nil, fmt.Errorf("bootstrap: SlotsToCoeffs: %w", err)
	}
	// CoeffsToSlots: u = (1/(2B)) SFinv * v.
	if bt.c2s, err = bt.enc.DFTStages(true, bp.C2SStages, 1/(2*b)); err != nil {
		return nil, fmt.Errorf("bootstrap: CoeffsToSlots: %w", err)
	}
	for _, lt := range bt.stages() {
		lt.Memo = ckks.NewPlaintextMemo(params, ckks.PlaintextMemoCap)
	}
	return bt, nil
}

// WithTableCap returns a bootstrapper that shares bt's matrices and
// polynomials but keeps its encoded diagonals in fresh, empty tables of
// at most capBytes per stage. Tests use it to reach the over-budget path;
// zero encodes every diagonal on every bootstrap.
func (bt *Bootstrapper) WithTableCap(capBytes int64) *Bootstrapper {
	fresh := func(stages []*ckks.LinearTransform) []*ckks.LinearTransform {
		out := make([]*ckks.LinearTransform, len(stages))
		for i, lt := range stages {
			cp := *lt
			cp.Memo = ckks.NewPlaintextMemo(bt.params, capBytes)
			out[i] = &cp
		}
		return out
	}
	out := *bt
	out.s2c, out.c2s = fresh(bt.s2c), fresh(bt.c2s)
	return &out
}

// TableStats reads the counters of every stage's diagonal table, summed.
func (bt *Bootstrapper) TableStats() ckks.MemoStats {
	var st ckks.MemoStats
	for _, lt := range bt.stages() {
		st = st.Add(lt.Memo.Stats())
	}
	return st
}

// stages lists every stage matrix in the order the circuit runs them,
// SlotsToCoeffs first.
func (bt *Bootstrapper) stages() []*ckks.LinearTransform {
	return append(append([]*ckks.LinearTransform(nil), bt.s2c...), bt.c2s...)
}

// RequiredRotations returns the slot rotations the evaluator's key set
// must cover (conjugation is needed as well), in ascending order: a
// seeded key generator draws one key per entry, so the order is part of
// what makes a seeded key set reproducible.
func (bt *Bootstrapper) RequiredRotations() []int {
	set := map[int]bool{}
	for _, lt := range bt.stages() {
		for _, r := range lt.Rotations() {
			set[r] = true
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Depth returns the number of levels the bootstrap circuit consumes.
func (bt *Bootstrapper) Depth() int { return CircuitDepth(bt.bp) }

// InputLevel is the level Bootstrap takes ciphertexts at: SlotsToCoeffs
// consumes the levels down to 0.
func (bt *Bootstrapper) InputLevel() int { return bt.bp.S2CStages }

// MaxOutputLevel is the highest level Bootstrap can refresh to.
func (bt *Bootstrapper) MaxOutputLevel() int {
	return bt.params.MaxLevel() - RaiseLevel(bt.bp, 0)
}

// Bootstrap refreshes the real part of ct's slots (ct must be at the
// input level with |values| <= 1) to the given target level; the
// output's slots are real. Following the paper's minimal-level strategy,
// pass the smallest level your remaining computation needs; pass
// MaxOutputLevel() to refresh as high as possible.
func (bt *Bootstrapper) Bootstrap(ev *ckks.Evaluator, ct *ckks.Ciphertext, targetLevel int) (*ckks.Ciphertext, error) {
	if ct.Level() != bt.InputLevel() {
		return nil, fmt.Errorf("bootstrap: ciphertext at level %d, expected %d (drop first)", ct.Level(), bt.InputLevel())
	}
	if targetLevel < 1 || targetLevel > bt.MaxOutputLevel() {
		return nil, fmt.Errorf("bootstrap: target level %d out of [1, %d]", targetLevel, bt.MaxOutputLevel())
	}
	out, err := bt.Run(ev, ct, Schedule(bt.bp, bt.params.LogN(), targetLevel))
	if err != nil {
		return nil, err
	}
	if out.Level() != targetLevel {
		return nil, fmt.Errorf("bootstrap: circuit of depth %d ended at level %d, not the target %d", bt.Depth(), out.Level(), targetLevel)
	}
	// The double angles end on the scale at which EvalMod's output,
	// 2π·D/q0 times the slots, reads as the slots at bt.scale.
	if want := bt.scale * bt.q0 / (2 * math.Pi * bt.d); math.Abs(out.Scale/want-1) > 1e-9 {
		return nil, fmt.Errorf("bootstrap: circuit ended at scale %g, not %g", out.Scale, want)
	}
	out.Scale = bt.scale
	return out, nil
}

// evalModScale returns the scale EvalMod's polynomial must land on when
// it ends at the given level. Each double angle squares the scale and
// divides it by the prime of the level it enters at, and the last must
// end on bt.scale·q0/(2π·D), the scale at which sin(2π·t/q0) ≈ 2π·z·D/q0
// reads as z at bt.scale; so the scales are solved backwards from there.
func (bt *Bootstrapper) evalModScale(level int) float64 {
	q := bt.params.Q()
	s := bt.scale * bt.q0 / (2 * math.Pi * bt.d)
	for l := level - bt.bp.DoubleAngle + 1; l <= level; l++ {
		s = math.Sqrt(s * float64(q[l]))
	}
	return s
}

// Run runs ops, a stretch of the bootstrapper's schedule, on ct and
// returns the result. Every op must find the ciphertext at its level.
// The stage matrices of a transform carry the declared scale to the
// transform's target in equal ratios — the input's to D over
// SlotsToCoeffs, D to the circuit scale over CoeffsToSlots — so every
// stage encodes its diagonals at the same plaintext scale (rescaling
// prime times that ratio): no stage is left with the whole jump and
// entries too coarse or too large for it.
func (bt *Bootstrapper) Run(ev *ckks.Evaluator, ct *ckks.Ciphertext, ops []Op) (*ckks.Ciphertext, error) {
	x := ct
	var conjIn *ckks.Ciphertext // the input of the conjugation just run
	for _, op := range ops {
		if x.Level() != op.Level {
			return nil, fmt.Errorf("bootstrap: %s entered at level %d, scheduled at %d", op.Name, x.Level(), op.Level)
		}
		var err error
		switch op.Name {
		case OpConjugate:
			conjIn = x
			x, err = ev.Conjugate(x)
		case kswork.OpAdd:
			other := x // 2y²: the square doubled
			if conjIn != nil {
				other, conjIn = conjIn, nil // ct + conj(ct)
			}
			x, err = ev.Add(other, x)
		case OpAddConst:
			x = ev.AddConst(x, -1)
		case kswork.OpMul:
			x, err = ev.Mul(x, x)
		case kswork.OpRelin:
			x, err = ev.Relinearize(x)
		case kswork.OpRescale:
			x, err = ev.Rescale(x)
		case kswork.OpModRaise:
			x = ev.ModRaise(x, op.To)
		case kswork.OpPoly:
			x, err = ev.EvaluatePolynomial(x, op.Plan, bt.evalModScale(op.Level-op.Plan.Depth()))
		case kswork.OpLinear:
			stages, i, target := bt.s2c, op.Stage, bt.d
			if i >= len(bt.s2c) {
				stages, i, target = bt.c2s, i-len(bt.s2c), bt.circuitScale
			}
			next := target
			if left := len(stages) - i; left > 1 {
				next = x.Scale * math.Pow(target/x.Scale, 1/float64(left))
			}
			x, err = ev.EvaluateLinearTransform(x, stages[i], bt.enc, next)
		default:
			err = fmt.Errorf("unknown instruction")
		}
		if err != nil {
			return nil, fmt.Errorf("bootstrap: %s at level %d: %w", op.Name, op.Level, err)
		}
	}
	return x, nil
}
