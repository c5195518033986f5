// Package bootstrap implements CKKS bootstrapping: the noise-refreshing
// procedure that raises an exhausted (level-0) ciphertext back to a
// usable level so that homomorphic evaluation can continue indefinitely.
//
// The pipeline is the standard one (Cheon et al. "Bootstrapping for
// Approximate Homomorphic Encryption", with the Han–Ki cosine/double-
// angle EvalMod):
//
//  1. ScaleUp — multiply the message up to q0/MessageRatio.
//  2. ModRaise — re-interpret the level-0 ciphertext modulo Q_l, yielding
//     t = m + q0·I with a small integer polynomial I.
//  3. CoeffsToSlots — a homomorphic inverse embedding moving the
//     coefficients of t into slots (two ciphertexts: real and imaginary
//     coefficient halves).
//  4. EvalMod — approximate t mod q0 on each slot with a Chebyshev
//     interpolation of a scaled cosine followed by double-angle steps.
//  5. SlotsToCoeffs — the forward embedding moving the refreshed slots
//     back into coefficients.
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
	// MessageRatio is q0 / (message scale) headroom kept so that
	// sin(2*pi*m/q0) ~ 2*pi*m/q0. Default 256.
	MessageRatio float64
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

// StepKind names what one step of the circuit's schedule does.
type StepKind int

const (
	StepC2S         StepKind = iota // one CoeffsToSlots stage matrix
	StepConjugate                   // the conjugation that splits the coefficient halves
	StepEvalMod                     // EvalMod's polynomial
	StepDoubleAngle                 // one double angle: square, relinearise, rescale
	StepS2C                         // one SlotsToCoeffs stage matrix
)

// Step is one key-switching step of the bootstrap circuit.
type Step struct {
	Kind StepKind
	// Level is the level the ciphertext enters the step at.
	Level int
	// Diags is the stage matrix's diagonal count (StepC2S, StepS2C).
	Diags int
	// Plan is the polynomial's evaluation plan (StepEvalMod).
	Plan *poly.Plan
	// Count is how many ciphertexts run the step: 2 for EvalMod's steps,
	// which run on both coefficient halves at the same levels, else 1.
	Count int
}

// Schedule returns the key-switching steps of one bootstrap to the
// target level in a ring of degree 2^logN, in the order Bootstrap runs
// them and each with the level it enters at: the CoeffsToSlots stages
// down from target + CircuitDepth, the conjugation, EvalMod's polynomial
// and double angles (each listed once for both halves), the
// SlotsToCoeffs stages down to the target. The transforms act on all
// 2^(logN-1) slots of the ring. The compiler, the cost model, the POLY
// IR and the memory figures all fold over this one list.
func Schedule(p Parameters, logN, target int) []Step {
	p = p.withDefaults()
	c2s := kswork.StageDiagonals(logN-1, p.C2SStages, true)
	s2c := kswork.StageDiagonals(logN-1, p.S2CStages, false)
	evalMod := evalModPlan(p)
	level := target + CircuitDepth(p)
	steps := make([]Step, 0, len(c2s)+2+p.DoubleAngle+len(s2c))
	for _, d := range c2s {
		steps = append(steps, Step{Kind: StepC2S, Level: level, Diags: d, Count: 1})
		level--
	}
	steps = append(steps,
		Step{Kind: StepConjugate, Level: level, Count: 1},
		Step{Kind: StepEvalMod, Level: level, Plan: evalMod, Count: 2})
	level -= evalMod.Depth()
	for i := 0; i < p.DoubleAngle; i++ {
		steps = append(steps, Step{Kind: StepDoubleAngle, Level: level, Count: 2})
		level--
	}
	for _, d := range s2c {
		steps = append(steps, Step{Kind: StepS2C, Level: level, Diags: d, Count: 1})
		level--
	}
	return steps
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

// evalModPlans memoises evalModPlan by (K, degree, double angles): the
// compiler asks for the plan of one configuration some fifty times while
// it prices stage counts, and a plan is read-only once built.
var evalModPlans sync.Map

func (p Parameters) withDefaults() Parameters {
	if p.K == 0 {
		p.K = 16
	}
	if p.MessageRatio == 0 {
		p.MessageRatio = 256
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

// Bootstrapper holds the precomputed stage matrices and polynomials. It
// is safe for concurrent use by evaluators with distinct key sets: the
// matrices are read-only, and every stage keeps its encoded diagonals in
// a memo that fills on first use, so every machine sharing a bootstrapper
// encodes each diagonal once per (level, scale) rather than on every
// bootstrap.
type Bootstrapper struct {
	params  *ckks.Parameters
	bp      Parameters
	enc     *ckks.Encoder
	c2s     []*ckks.LinearTransform // stages of (1/(2B)) * SFinv
	s2c     []*ckks.LinearTransform // stages of (q0/(2*pi*D)) * SF
	evalMod *poly.Plan              // cos interpolation before double-angle

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
	k := math.Round(q0 / (bp.MessageRatio * inputScale))
	if k < 1 {
		return nil, fmt.Errorf("bootstrap: input scale %g too close to q0 %g for message ratio %g", inputScale, q0, bp.MessageRatio)
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
		evalMod:      evalModPlan(bp),
	}
	var err error
	// CoeffsToSlots: u = (1/(2B)) SFinv * v.
	if bt.c2s, err = bt.enc.DFTStages(true, bp.C2SStages, 1/(2*b)); err != nil {
		return nil, fmt.Errorf("bootstrap: CoeffsToSlots: %w", err)
	}
	// SlotsToCoeffs: out = (q0/(2 pi D)) SF * y.
	if bt.s2c, err = bt.enc.DFTStages(false, bp.S2CStages, q0/(2*math.Pi*d)); err != nil {
		return nil, fmt.Errorf("bootstrap: SlotsToCoeffs: %w", err)
	}
	for _, lt := range bt.stages() {
		lt.Memo = ckks.NewPlaintextMemoQP(params, ckks.PlaintextMemoCap)
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
			cp.Memo = ckks.NewPlaintextMemoQP(bt.params, capBytes)
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

// Raise is steps 1 and 2: it scales ct (which must be at level 0 with
// |values| <= 1) up to D and re-interprets it modulo the chain up to the
// level a refresh to targetLevel starts at. drift is how far the scale
// ct declared was from the one the circuit was built for; the output of
// SlotsToCoeffs carries that factor in its values.
func (bt *Bootstrapper) Raise(ev *ckks.Evaluator, ct *ckks.Ciphertext, targetLevel int) (raised *ckks.Ciphertext, drift float64, err error) {
	if ct.Level() != 0 {
		return nil, 0, fmt.Errorf("bootstrap: ciphertext at level %d, expected 0 (drop first)", ct.Level())
	}
	if targetLevel < 1 || targetLevel > bt.MaxOutputLevel() {
		return nil, 0, fmt.Errorf("bootstrap: target level %d out of [1, %d]", targetLevel, bt.MaxOutputLevel())
	}
	// 1. ScaleUp to D.
	k := uint64(math.Round(bt.d / ct.Scale))
	if k == 0 {
		return nil, 0, fmt.Errorf("bootstrap: ciphertext scale %g above the configured input scale", ct.Scale)
	}
	up := ev.ScaleUp(ct, k)
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

// Bootstrap refreshes ct (which must be at level 0 with |values| <= 1) to
// the given target level. Following the paper's minimal-level strategy,
// pass the smallest level your remaining computation needs; pass
// MaxOutputLevel() to refresh as high as possible.
func (bt *Bootstrapper) Bootstrap(ev *ckks.Evaluator, ct *ckks.Ciphertext, targetLevel int) (*ckks.Ciphertext, error) {
	raised, drift, err := bt.Raise(ev, ct, targetLevel)
	if err != nil {
		return nil, err
	}
	ct0, ct1, err := bt.CoeffsToSlots(ev, raised)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: CoeffsToSlots: %w", err)
	}
	y0, err := bt.EvalMod(ev, ct0)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: EvalMod: %w", err)
	}
	y1, err := bt.EvalMod(ev, ct1)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: EvalMod: %w", err)
	}
	out, err := bt.SlotsToCoeffs(ev, y0, y1)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: SlotsToCoeffs: %w", err)
	}
	// Absorb the ScaleUp drift exactly: the circuit divides by the D it
	// was built with, so the output values carry a factor D'/D.
	out.Scale = out.Scale * drift
	if out.Level() != targetLevel {
		return nil, fmt.Errorf("bootstrap: circuit of depth %d ended at level %d, not the target %d", bt.Depth(), out.Level(), targetLevel)
	}
	return out, nil
}

// evalStages runs ct through the stage matrices of one transform, landing
// on the target scale after the last. The scale moves there in equal
// ratios, so every stage encodes its diagonals at the same plaintext
// scale (rescaling prime times that ratio): no stage is left with the
// whole jump and entries too coarse or too large for it.
func (bt *Bootstrapper) evalStages(ev *ckks.Evaluator, ct *ckks.Ciphertext, stages []*ckks.LinearTransform, target float64) (*ckks.Ciphertext, error) {
	for i, lt := range stages {
		next := target
		if left := len(stages) - i; left > 1 {
			next = ct.Scale * math.Pow(target/ct.Scale, 1/float64(left))
		}
		var err error
		if ct, err = ev.EvaluateLinearTransform(ct, lt, bt.enc, next); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

// CoeffsToSlots is step 3: it moves the coefficients of the raised
// ciphertext into the slots of two ciphertexts, the real and the
// imaginary coefficient half, normalised for EvalMod. The stages carry
// the declared scale from D to the circuit scale between them, so the
// halves need no scale correction of their own.
func (bt *Bootstrapper) CoeffsToSlots(ev *ckks.Evaluator, raised *ckks.Ciphertext) (ct0, ct1 *ckks.Ciphertext, err error) {
	u, err := bt.evalStages(ev, raised, bt.c2s, bt.circuitScale)
	if err != nil {
		return nil, nil, err
	}
	uc, err := ev.Conjugate(u)
	if err != nil {
		return nil, nil, err
	}
	if ct0, err = ev.Add(u, uc); err != nil { // real coefficient half
		return nil, nil, err
	}
	diff, err := ev.Sub(u, uc)
	if err != nil {
		return nil, nil, err
	}
	return ct0, ev.Neg(ev.MulByI(diff)), nil // imaginary coefficient half
}

// SlotsToCoeffs is step 5: it recombines the two refreshed halves and
// moves their slots back into coefficients at the default scale.
func (bt *Bootstrapper) SlotsToCoeffs(ev *ckks.Evaluator, y0, y1 *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	yc, err := ev.Add(y0, ev.MulByI(y1))
	if err != nil {
		return nil, err
	}
	return bt.evalStages(ev, yc, bt.s2c, bt.params.DefaultScale())
}

// EvalMod is step 4 on one half: the cosine interpolation followed by the
// double-angle iterations, producing sin(2*pi*t/q0) (up to the folded
// constants).
func (bt *Bootstrapper) EvalMod(ev *ckks.Evaluator, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	y, err := ev.EvaluatePolynomial(ct, bt.evalMod, bt.circuitScale)
	if err != nil {
		return nil, err
	}
	for i := 0; i < bt.bp.DoubleAngle; i++ {
		sq, err := ev.Mul(y, y)
		if err != nil {
			return nil, err
		}
		dbl, err := ev.Add(sq, sq)
		if err != nil {
			return nil, err
		}
		dbl = ev.AddConst(dbl, -1)
		rl, err := ev.Relinearize(dbl)
		if err != nil {
			return nil, err
		}
		y, err = ev.Rescale(rl)
		if err != nil {
			return nil, err
		}
	}
	return y, nil
}
