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
// Following the paper's "minimal-level" strategy (§4.4), Bootstrap can
// refresh to a caller-chosen target level rather than the top of the
// chain, which shrinks every subsequent homomorphic operation.
package bootstrap

import (
	"fmt"
	"math"
	"sort"

	"antace/internal/ckks"
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
}

// WithDefaults fills unset fields with the default configuration.
func (p Parameters) WithDefaults() Parameters { return p.withDefaults() }

// CircuitDepth returns the number of levels the bootstrap circuit for
// this configuration consumes, without instantiating it: C2S (1) +
// scale normalisation (1) + EvalMod polynomial (ceil(log2(deg+1)) + 1) +
// double angles + S2C (1). Must agree with Bootstrapper.Depth.
func CircuitDepth(p Parameters) int {
	p = p.withDefaults()
	depth := 0
	for (1 << depth) < p.EvalModDegree+1 {
		depth++
	}
	return 1 + 1 + depth + 1 + p.DoubleAngle + 1
}

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
	return p
}

// Bootstrapper holds the precomputed matrices and polynomials. It is
// safe for concurrent use by evaluators with distinct key sets: the
// matrices are read-only, and the two transforms keep their encoded
// diagonals in memos that fill on first use, so every machine sharing a
// bootstrapper encodes each diagonal once per (level, scale) rather than
// on every bootstrap.
type Bootstrapper struct {
	params  *ckks.Parameters
	bp      Parameters
	enc     *ckks.Encoder
	c2s     *ckks.LinearTransform // (1/(2B)) * SFinv
	s2c     *ckks.LinearTransform // (q0/(2*pi*D)) * SF
	evalMod *poly.Polynomial      // cos interpolation before double-angle

	q0 float64
	d  float64 // declared scale after ScaleUp+ModRaise
	b  float64 // normalisation bound for EvalMod input

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
		b:            b,
		circuitScale: float64(params.Q()[params.MaxLevel()]),
	}
	bt.buildMatrices()
	bt.buildEvalMod()
	return bt, nil
}

// buildMatrices probes the encoder FFT with unit vectors to obtain the
// special FFT and its inverse as dense diagonal-form linear transforms.
func (bt *Bootstrapper) buildMatrices() {
	n := bt.params.Slots()
	sfinv := make([][]complex128, n)
	sf := make([][]complex128, n)
	for i := range sfinv {
		sfinv[i] = make([]complex128, n)
		sf[i] = make([]complex128, n)
	}
	probe := make([]complex128, n)
	for j := 0; j < n; j++ {
		for i := range probe {
			probe[i] = 0
		}
		probe[j] = 1
		bt.enc.SpecialFFTInv(probe)
		for i := 0; i < n; i++ {
			sfinv[i][j] = probe[i]
		}
		for i := range probe {
			probe[i] = 0
		}
		probe[j] = 1
		bt.enc.SpecialFFT(probe)
		for i := 0; i < n; i++ {
			sf[i][j] = probe[i]
		}
	}
	// CoeffsToSlots: u = (1/(2B)) SFinv * v.
	c2sScale := complex(1/(2*bt.b), 0)
	// SlotsToCoeffs: out = (q0/(2 pi D)) SF * y.
	s2cScale := complex(bt.q0/(2*math.Pi*bt.d), 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sfinv[i][j] *= c2sScale
			sf[i][j] *= s2cScale
		}
	}
	bt.c2s = ckks.NewLinearTransformFromMatrix(sfinv)
	bt.s2c = ckks.NewLinearTransformFromMatrix(sf)
	bt.c2s.Memo = ckks.NewPlaintextMemo(bt.params, ckks.PlaintextMemoCap)
	bt.s2c.Memo = ckks.NewPlaintextMemo(bt.params, ckks.PlaintextMemoCap)
}

// WithTableCap returns a bootstrapper that shares bt's matrices and
// polynomials but keeps its encoded diagonals in fresh, empty tables of
// at most capBytes each. Tests use it to reach the over-budget path;
// zero encodes every diagonal on every bootstrap.
func (bt *Bootstrapper) WithTableCap(capBytes int64) *Bootstrapper {
	out := *bt
	c2s, s2c := *bt.c2s, *bt.s2c
	c2s.Memo = ckks.NewPlaintextMemo(bt.params, capBytes)
	s2c.Memo = ckks.NewPlaintextMemo(bt.params, capBytes)
	out.c2s, out.s2c = &c2s, &s2c
	return &out
}

// TableStats reads the counters of the two diagonal tables, summed.
func (bt *Bootstrapper) TableStats() ckks.MemoStats {
	return bt.c2s.Memo.Stats().Add(bt.s2c.Memo.Stats())
}

// buildEvalMod interpolates h(x) = cos(2*pi*freq*x/2^r - pi/2^(r+1)) on
// [-1,1], where freq = B*D/q0 = K+1 restores the true q0-periodicity
// after the input normalisation by B.
func (bt *Bootstrapper) buildEvalMod() {
	freq := bt.b * bt.d / bt.q0
	r := float64(int(1) << bt.bp.DoubleAngle)
	h := func(x float64) float64 {
		return math.Cos((2*math.Pi*freq*x - math.Pi/2) / r)
	}
	bt.evalMod = poly.ChebyshevInterpolate(h, -1, 1, bt.bp.EvalModDegree)
}

// RequiredRotations returns the slot rotations the evaluator's key set
// must cover (conjugation is needed as well), in ascending order: a
// seeded key generator draws one key per entry, so the order is part of
// what makes a seeded key set reproducible.
func (bt *Bootstrapper) RequiredRotations() []int {
	set := map[int]bool{}
	for _, r := range bt.c2s.Rotations() {
		set[r] = true
	}
	for _, r := range bt.s2c.Rotations() {
		set[r] = true
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
func (bt *Bootstrapper) Depth() int {
	return CircuitDepth(bt.bp)
}

// MaxOutputLevel is the highest level Bootstrap can refresh to.
func (bt *Bootstrapper) MaxOutputLevel() int {
	return bt.params.MaxLevel() - bt.Depth()
}

// Bootstrap refreshes ct (which must be at level 0 with |values| <= 1) to
// the given target level. Following the paper's minimal-level strategy,
// pass the smallest level your remaining computation needs; pass
// MaxOutputLevel() to refresh as high as possible.
func (bt *Bootstrapper) Bootstrap(ev *ckks.Evaluator, ct *ckks.Ciphertext, targetLevel int) (*ckks.Ciphertext, error) {
	if ct.Level() != 0 {
		return nil, fmt.Errorf("bootstrap: ciphertext at level %d, expected 0 (drop first)", ct.Level())
	}
	if targetLevel < 1 || targetLevel > bt.MaxOutputLevel() {
		return nil, fmt.Errorf("bootstrap: target level %d out of [1, %d]", targetLevel, bt.MaxOutputLevel())
	}
	// 1. ScaleUp to D.
	k := uint64(math.Round(bt.d / ct.Scale))
	if k == 0 {
		return nil, fmt.Errorf("bootstrap: ciphertext scale %g above the configured input scale", ct.Scale)
	}
	up := ev.ScaleUp(ct, k)
	// The declared scale is now k*ct.Scale; the circuit was built for D.
	// Any tiny mismatch shows up as a proportional output error, so we
	// fold it in exactly by re-declaring (difference is < 1 part in 2^40
	// when ct.Scale matches the scale the bootstrapper was built for).
	rel := up.Scale / bt.d
	if rel < 0.5 || rel > 2 {
		return nil, fmt.Errorf("bootstrap: scale drift too large (declared %g, circuit expects %g)", up.Scale, bt.d)
	}

	// 2. ModRaise, then drop to the level budget needed.
	raised := ev.ModRaise(up, targetLevel+bt.Depth())
	raised.Scale = bt.d

	// 3. CoeffsToSlots. The transform keeps the (large) declared scale of
	// the raised ciphertext (plaintext scale = rescaling prime) so the
	// matrix entries retain precision; a SetScale then brings the halves
	// back to the default scale over a second rescale.
	u, err := ev.EvaluateLinearTransform(raised, bt.c2s, bt.enc, raised.Scale)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: CoeffsToSlots: %w", err)
	}
	uc, err := ev.Conjugate(u)
	if err != nil {
		return nil, err
	}
	ct0, err := ev.Add(u, uc) // real coefficient half
	if err != nil {
		return nil, err
	}
	diff, err := ev.Sub(u, uc)
	if err != nil {
		return nil, err
	}
	ct1 := ev.Neg(ev.MulByI(diff)) // imaginary coefficient half
	if ct0, err = ev.SetScale(ct0, bt.circuitScale); err != nil {
		return nil, err
	}
	if ct1, err = ev.SetScale(ct1, bt.circuitScale); err != nil {
		return nil, err
	}

	// 4. EvalMod on both halves.
	y0, err := bt.evalModCt(ev, ct0)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: EvalMod: %w", err)
	}
	y1, err := bt.evalModCt(ev, ct1)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: EvalMod: %w", err)
	}

	// 5. Recombine and SlotsToCoeffs.
	y1i := ev.MulByI(y1)
	yc, err := ev.Add(y0, y1i)
	if err != nil {
		return nil, err
	}
	out, err := ev.EvaluateLinearTransform(yc, bt.s2c, bt.enc, bt.params.DefaultScale())
	if err != nil {
		return nil, fmt.Errorf("bootstrap: SlotsToCoeffs: %w", err)
	}
	// Absorb the ScaleUp drift exactly: the circuit divides by the D it
	// was built with, so the output values carry a factor rel = D'/D.
	out.Scale = out.Scale * rel
	if out.Level() > targetLevel {
		if err := ev.DropLevel(out, out.Level()-targetLevel); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalModCt applies the cosine interpolation followed by the double-angle
// iterations, producing sin(2*pi*t/q0) (up to the folded constants).
func (bt *Bootstrapper) evalModCt(ev *ckks.Evaluator, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
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
