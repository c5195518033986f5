// Package bootstrap implements CKKS bootstrapping: the noise-refreshing
// procedure that raises an exhausted (level-0) ciphertext back to a
// usable level so that homomorphic evaluation can continue indefinitely.
//
// The pipeline is the standard one (Cheon et al. "Bootstrapping for
// Approximate Homomorphic Encryption", with the Han–Ki cosine/double-
// angle EvalMod):
//
//  1. ScaleUp — keep the real part of the slots, ct + conj(ct), and
//     multiply the message up to q0/messageRatio.
//  2. ModRaise — re-interpret the level-0 ciphertext modulo Q_l, yielding
//     t = m + q0·I with a small integer polynomial I.
//  3. CoeffsToSlots — a homomorphic inverse embedding moving the
//     coefficients of t into slots, followed by the conjugation that keeps
//     the first coefficient half, t_0 … t_{N/2−1}.
//  4. EvalMod — approximate t mod q0 on each slot with a Chebyshev
//     interpolation of a scaled cosine followed by double-angle steps.
//  5. SlotsToCoeffs — the forward embedding moving the refreshed half
//     back into coefficients, followed by the conjugation that mirrors it
//     into the other half.
//
// One EvalMod suffices because the slots are real. A real slot vector's
// plaintext satisfies m(X) = m(X⁻¹), so m_{N−j} = −m_j and m_{N/2} = 0:
// the first coefficient half determines the rest, and the second half of
// t, whose integer part differs, is never refreshed. If p is the
// polynomial SlotsToCoeffs makes from the refreshed half, p + τ(p), τ the
// conjugation X ↦ X⁻¹, is m with its constant coefficient doubled; the
// first SlotsToCoeffs stage halves its slot-0 column to match. Bootstrap
// therefore refreshes the real part of the slots and drops the imaginary
// part.
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
// this configuration consumes, without instantiating it: the C2S stages,
// EvalMod's polynomial as its evaluation plan runs it, the double angles
// and the S2C stages.
func CircuitDepth(p Parameters) int {
	p = p.withDefaults()
	return p.C2SStages + evalModPlan(p).Depth() + p.DoubleAngle + p.S2CStages
}

// The instructions of the circuit, named as the compiled program's
// instructions are (ckksir's opcodes; a test holds the strings equal,
// since ckksir imports this package).
const (
	OpAdd     = "ckks.add"
	OpMul     = "ckks.mul"
	OpRelin   = "ckks.relin"
	OpRescale = "ckks.rescale"
	OpLinear  = "ckks.linear" // one DFT stage matrix
	OpPoly    = "ckks.poly"   // EvalMod's polynomial

	// No program instruction conjugates or adds a constant. A conjugation
	// is a rotation by the conjugation's Galois element, and adding the
	// double angle's −1 is one pass over c0, as adding a plaintext is:
	// Priced names the instruction each is priced as.
	OpConjugate = "ckks.conjugate"
	OpAddConst  = "ckks.add_const"

	opRotate   = "ckks.rotate"
	opAddPlain = "ckks.add_plain"
)

// Op is one instruction of the bootstrap circuit. The circuit runs on one
// ciphertext x: every op replaces x by its result. An add right after a
// conjugation adds the conjugation's input, ct + conj(ct); any other add
// doubles x.
type Op struct {
	// Name is the instruction (one of the Op constants).
	Name string
	// Level is the level x enters the op at.
	Level int
	// Split is a stage matrix's baby-step/giant-step split, and Stage its
	// index among the bootstrapper's stage matrices, CoeffsToSlots' first
	// (OpLinear).
	Split kswork.Split
	Stage int
	// Plan is EvalMod's evaluation plan (OpPoly).
	Plan *poly.Plan
}

// Priced returns the program instruction op is priced as: its own name,
// a rotation for a conjugation and a plaintext addition for the constant.
func (op Op) Priced() string {
	switch op.Name {
	case OpConjugate:
		return opRotate
	case OpAddConst:
		return opAddPlain
	}
	return op.Name
}

// realPart is the head of every schedule: ct + conj(ct) at level 0, which
// Raise runs before it raises the modulus.
var realPart = []Op{{Name: OpConjugate}, {Name: OpAdd}}

// Schedule returns the instructions of one bootstrap to the target level
// in a ring of degree 2^logN, in the order Bootstrap runs them and each
// with the level it enters at: the real part at level 0, the
// CoeffsToSlots stages down from target + CircuitDepth, the real half,
// EvalMod's polynomial and double angles, the SlotsToCoeffs stages down
// to the target and the real part there. The transforms act on all
// 2^(logN-1) slots of the ring. The Bootstrapper runs this list; the
// compiler, the cost model, the POLY IR and the memory figures fold over
// it.
func Schedule(p Parameters, logN, target int) []Op {
	p = p.withDefaults()
	c2s := kswork.StageDiagonals(logN-1, p.C2SStages, true)
	s2c := kswork.StageDiagonals(logN-1, p.S2CStages, false)
	evalMod := evalModPlan(p)
	// Seven ops besides the stages and the double angles: three real
	// parts of two ops and the polynomial.
	ops := append(make([]Op, 0, len(c2s)+len(s2c)+5*p.DoubleAngle+7), realPart...)
	level := target + CircuitDepth(p)
	// emit appends op at the current level and then drops the levels it
	// consumes.
	emit := func(op Op, consumes int) {
		op.Level = level
		ops = append(ops, op)
		level -= consumes
	}
	for i, d := range c2s {
		emit(Op{Name: OpLinear, Split: kswork.DFTSplit(d), Stage: i}, 1)
	}
	emit(Op{Name: OpConjugate}, 0)
	emit(Op{Name: OpAdd}, 0)
	emit(Op{Name: OpPoly, Plan: evalMod}, evalMod.Depth())
	for range p.DoubleAngle { // y ↦ 2y² − 1
		emit(Op{Name: OpMul}, 0)
		emit(Op{Name: OpAdd}, 0)
		emit(Op{Name: OpAddConst}, 0)
		emit(Op{Name: OpRelin}, 0)
		emit(Op{Name: OpRescale}, 1)
	}
	for i, d := range s2c {
		emit(Op{Name: OpLinear, Split: kswork.DFTSplit(d), Stage: len(c2s) + i}, 1)
	}
	emit(Op{Name: OpConjugate}, 0)
	emit(Op{Name: OpAdd}, 0)
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

// messageRatio is the q0 / (message scale) headroom kept so that
// sin(2*pi*m/q0) ~ 2*pi*m/q0.
const messageRatio = 256

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
	c2s    []*ckks.LinearTransform // stages of (1/(2B)) * SFinv
	s2c    []*ckks.LinearTransform // stages of (q0/(2*pi*D)) * SF, slot-0 column halved

	q0 float64
	d  float64 // declared scale after ScaleUp+ModRaise

	// circuitScale is the working scale inside the bootstrap circuit.
	// The circuit's levels should carry primes of about this size (the
	// top of the chain, typically ~2^60): large primes keep the encoded
	// DFT matrices and EvalMod constants precise, and matching the scale
	// to the prime size keeps rescaling scale-stable.
	circuitScale float64
}

// NewBootstrapper precomputes the bootstrapping circuit for the given
// parameters. The input scale is the scale ciphertexts will carry when
// Bootstrap is called (typically params.DefaultScale()).
func NewBootstrapper(params *ckks.Parameters, bp Parameters, inputScale float64) (*Bootstrapper, error) {
	bp = bp.withDefaults()
	if inputScale == 0 {
		inputScale = params.DefaultScale()
	}
	q0 := float64(params.Q()[0])
	// k is even: Raise doubles the declared scale when it keeps the real
	// part, and then scales up by k/2.
	k := 2 * math.Round(q0/(2*messageRatio*inputScale))
	if k < 2 {
		return nil, fmt.Errorf("bootstrap: input scale %g too close to q0 %g for message ratio %d", inputScale, q0, messageRatio)
	}
	d := k * inputScale // declared scale after ScaleUp (message now m = v*d)
	// EvalMod input bound: |t|/d <= (q0*(K+1))/d; normalised by B so the
	// Chebyshev domain is [-1,1].
	b := float64(bp.K+1) * q0 / d

	bt := &Bootstrapper{
		params:       params,
		bp:           bp,
		enc:          ckks.NewEncoder(params),
		q0:           q0,
		d:            d,
		circuitScale: float64(params.Q()[params.MaxLevel()]),
	}
	var err error
	// CoeffsToSlots: u = (1/(2B)) SFinv * v.
	if bt.c2s, err = bt.enc.DFTStages(true, bp.C2SStages, 1/(2*b)); err != nil {
		return nil, fmt.Errorf("bootstrap: CoeffsToSlots: %w", err)
	}
	// SlotsToCoeffs: out = (q0/(2 pi D)) SF * y, with y's slot 0 (the
	// constant coefficient, which the closing conjugation doubles) halved.
	if bt.s2c, err = bt.enc.DFTStages(false, bp.S2CStages, q0/(2*math.Pi*d)); err != nil {
		return nil, fmt.Errorf("bootstrap: SlotsToCoeffs: %w", err)
	}
	first := bt.s2c[0]
	for d, diag := range first.Diags {
		diag[(first.Slots-d)%first.Slots] /= 2
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
	out.c2s, out.s2c = fresh(bt.c2s), fresh(bt.s2c)
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

// stages lists every stage matrix, CoeffsToSlots first.
func (bt *Bootstrapper) stages() []*ckks.LinearTransform {
	return append(append([]*ckks.LinearTransform(nil), bt.c2s...), bt.s2c...)
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

// Depth returns the number of levels the bootstrap circuit consumes
// above its output level.
func (bt *Bootstrapper) Depth() int { return CircuitDepth(bt.bp) }

// MaxOutputLevel is the highest level Bootstrap can refresh to.
func (bt *Bootstrapper) MaxOutputLevel() int {
	return bt.params.MaxLevel() - bt.Depth()
}

// Raise is steps 1 and 2: it keeps the real part of ct's slots (ct must
// be at level 0 with |values| <= 1), scales it up to D and re-interprets
// it modulo the chain up to the level a refresh to targetLevel starts at.
// drift is how far the scale ct declared was from the one the circuit was
// built for; the output of SlotsToCoeffs carries that factor in its
// values.
func (bt *Bootstrapper) Raise(ev *ckks.Evaluator, ct *ckks.Ciphertext, targetLevel int) (raised *ckks.Ciphertext, drift float64, err error) {
	if ct.Level() != 0 {
		return nil, 0, fmt.Errorf("bootstrap: ciphertext at level %d, expected 0 (drop first)", ct.Level())
	}
	if targetLevel < 1 || targetLevel > bt.MaxOutputLevel() {
		return nil, 0, fmt.Errorf("bootstrap: target level %d out of [1, %d]", targetLevel, bt.MaxOutputLevel())
	}
	// 1. The real part, ct + conj(ct) declared at twice the scale, so that
	// the plaintext mirrors its first coefficient half; then ScaleUp to D.
	re, err := bt.Run(ev, ct, realPart)
	if err != nil {
		return nil, 0, err
	}
	re.Scale *= 2
	k := uint64(math.Round(bt.d / re.Scale))
	if k == 0 {
		return nil, 0, fmt.Errorf("bootstrap: ciphertext scale %g above the configured input scale", ct.Scale)
	}
	up := ev.ScaleUp(re, k)
	// The declared scale is now k*ct.Scale; the circuit was built for D.
	// Any tiny mismatch shows up as a proportional output error, so we
	// fold it in exactly by re-declaring (difference is < 1 part in 2^40
	// when ct.Scale matches the scale the bootstrapper was built for).
	drift = up.Scale / bt.d
	if drift < 0.5 || drift > 2 {
		return nil, 0, fmt.Errorf("bootstrap: scale drift too large (declared %g, circuit expects %g)", up.Scale, bt.d)
	}
	// 2. ModRaise, then drop to the level budget needed.
	raised = ev.ModRaise(up, targetLevel+bt.Depth())
	raised.Scale = bt.d
	return raised, drift, nil
}

// Bootstrap refreshes the real part of ct's slots (ct must be at level 0
// with |values| <= 1) to the given target level; the output's slots are
// real. Following the paper's minimal-level strategy, pass the smallest
// level your remaining computation needs; pass MaxOutputLevel() to
// refresh as high as possible.
func (bt *Bootstrapper) Bootstrap(ev *ckks.Evaluator, ct *ckks.Ciphertext, targetLevel int) (*ckks.Ciphertext, error) {
	raised, drift, err := bt.Raise(ev, ct, targetLevel)
	if err != nil {
		return nil, err
	}
	out, err := bt.Run(ev, raised, Schedule(bt.bp, bt.params.LogN(), targetLevel)[len(realPart):])
	if err != nil {
		return nil, err
	}
	// Absorb the ScaleUp drift exactly: the circuit divides by the D it
	// was built with, so the output values carry a factor D'/D.
	out.Scale = out.Scale * drift
	if out.Level() != targetLevel {
		return nil, fmt.Errorf("bootstrap: circuit of depth %d ended at level %d, not the target %d", bt.Depth(), out.Level(), targetLevel)
	}
	return out, nil
}

// Run runs ops, a stretch of the bootstrapper's schedule, on ct and
// returns the result. Every op must find the ciphertext at its level.
// The stage matrices of a transform carry the declared scale to the
// transform's target in equal ratios — D to the circuit scale over
// CoeffsToSlots, the circuit scale to the default one over SlotsToCoeffs
// — so every stage encodes its diagonals at the same plaintext scale
// (rescaling prime times that ratio): no stage is left with the whole
// jump and entries too coarse or too large for it. EvalMod's polynomial
// lands on the circuit scale.
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
		case OpAdd:
			other := x // 2y²: the square doubled
			if conjIn != nil {
				other, conjIn = conjIn, nil // ct + conj(ct)
			}
			x, err = ev.Add(other, x)
		case OpAddConst:
			x = ev.AddConst(x, -1)
		case OpMul:
			x, err = ev.Mul(x, x)
		case OpRelin:
			x, err = ev.Relinearize(x)
		case OpRescale:
			x, err = ev.Rescale(x)
		case OpPoly:
			x, err = ev.EvaluatePolynomial(x, op.Plan, bt.circuitScale)
		case OpLinear:
			stages, i, target := bt.c2s, op.Stage, bt.circuitScale
			if i >= len(bt.c2s) {
				stages, i, target = bt.s2c, i-len(bt.c2s), bt.params.DefaultScale()
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
