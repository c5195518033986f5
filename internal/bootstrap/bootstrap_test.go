package bootstrap

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/ckks"
	"antace/internal/ring"
)

type btContext struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	sk     *ckks.SecretKey
	encPk  *ckks.Encryptor
	dec    *ckks.Decryptor
	eval   *ckks.Evaluator
	bt     *Bootstrapper
}

func newBtContext(t testing.TB) *btContext {
	t.Helper()
	// Chain layout: q0 (60 bits), the 60-bit level of SlotsToCoeffs, two
	// 40-bit compute levels, then the 60-bit levels of the rest of the
	// bootstrap circuit; four special primes, the count the compiler picks
	// for a 14-prime chain.
	logQ := []int{60, 60, 40, 40}
	for i := 1; i < CircuitDepth(Parameters{}); i++ {
		logQ = append(logQ, 60)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     8,
		LogQ:     logQ,
		LogP:     []int{61, 61, 61, 61},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBootstrapper(params, Parameters{}, params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(123))
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(bt.RequiredRotations(), true, sk),
	}
	return &btContext{
		params: params,
		enc:    ckks.NewEncoder(params),
		sk:     sk,
		encPk:  ckks.NewEncryptor(params, pk),
		dec:    ckks.NewDecryptor(params, sk),
		eval:   ckks.NewEvaluator(params, keys),
		bt:     bt,
	}
}

func TestBootstrapDepthBudget(t *testing.T) {
	tc := newBtContext(t)
	if d := tc.bt.Depth(); d < 5 || d > 14 {
		t.Fatalf("bootstrap depth %d out of plausible band", d)
	}
	if tc.bt.MaxOutputLevel() < 1 {
		t.Fatalf("no output levels available: depth %d on chain %d", tc.bt.Depth(), tc.params.MaxLevel())
	}
}

// refresh encrypts values, exhausts the ciphertext down to the
// bootstrap's input level, bootstraps it to the highest level it can and
// decodes as many slots as there are values.
func (tc *btContext) refresh(t *testing.T, values []complex128) []complex128 {
	t.Helper()
	pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encPk.Encrypt(pt)
	if err := tc.eval.DropLevel(ct, ct.Level()-tc.bt.InputLevel()); err != nil {
		t.Fatal(err)
	}
	target := tc.bt.MaxOutputLevel()
	out, err := tc.bt.Bootstrap(tc.eval, ct, target)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level() != target {
		t.Fatalf("bootstrap output level %d, want %d", out.Level(), target)
	}
	return tc.enc.Decode(tc.dec.Decrypt(out), len(values))
}

// realPartError returns the worst distance of got's real parts from
// want's and the largest imaginary part got has.
func realPartError(got, want []complex128) (re, im float64) {
	for i := range got {
		re = math.Max(re, math.Abs(real(got[i])-real(want[i])))
		im = math.Max(im, math.Abs(imag(got[i])))
	}
	return re, im
}

// randomValues draws n slot values with real and imaginary parts uniform
// in [-1, 1), the imaginary parts scaled by imScale.
func randomValues(rng *rand.Rand, n int, imScale float64) []complex128 {
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(rng.Float64()*2-1, imScale*(rng.Float64()*2-1))
	}
	return values
}

// TestBootstrapRefreshesCiphertext refreshes real vectors of 1, 2, …
// N/2 values, each encoded with the gap that spreads it over the whole
// ring (a single value is the constant coefficient alone), and a complex
// vector, which must come back as its refreshed real part: SlotsToCoeffs
// writes the imaginary parts into the second coefficient half, which the
// real part after CoeffsToSlots drops. Only the conjugation's
// key-switching noise may put anything in the imaginary part.
func TestBootstrapRefreshesCiphertext(t *testing.T) {
	tc := newBtContext(t)
	rng := rand.New(rand.NewPCG(5, 11))
	type input struct {
		n       int
		imScale float64
	}
	var inputs []input
	for n := 1; n <= tc.params.Slots(); n *= 2 {
		inputs = append(inputs, input{n, 0})
	}
	inputs = append(inputs, input{tc.params.Slots(), 1})
	for _, in := range inputs {
		t.Run(fmt.Sprintf("n%d-im%g", in.n, in.imScale), func(t *testing.T) {
			values := randomValues(rng, in.n, in.imScale)
			worst, im := realPartError(tc.refresh(t, values), values)
			t.Logf("real-part error %.3e (~%.1f bits), imaginary %.1e", worst, -math.Log2(worst), im)
			if worst > 5e-4 || im > 1e-6 {
				t.Fatalf("real-part error %g, imaginary part %g: too large", worst, im)
			}
		})
	}
}

func TestBootstrapMinimalLevel(t *testing.T) {
	tc := newBtContext(t)
	slots := tc.params.Slots()
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(0.5, 0)
	}
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	tc.eval.DropLevel(ct, ct.Level()-tc.bt.InputLevel())

	// Refresh to level 3 only (the paper's minimal-level strategy): the
	// circuit above the raise must sit entirely on the large-prime levels
	// above the compute region, so 3 is the lowest target this chain
	// supports.
	out, err := tc.bt.Bootstrap(tc.eval, ct, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level() != 3 {
		t.Fatalf("bootstrap output level %d, want 3", out.Level())
	}
	// The refreshed ciphertext must support a further multiplication.
	sq, err := tc.eval.MulRelin(out, out)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = tc.eval.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(tc.dec.Decrypt(sq), slots)
	for i := range got {
		if math.Abs(real(got[i])-0.25) > 3e-2 {
			t.Fatalf("slot %d: got %g, want 0.25", i, real(got[i]))
		}
	}
}

func TestBootstrapRejectsBadInputs(t *testing.T) {
	tc := newBtContext(t)
	slots := tc.params.Slots()
	values := make([]complex128, slots)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)

	// Not at the input level.
	if _, err := tc.bt.Bootstrap(tc.eval, ct, 1); err == nil {
		t.Fatal("expected error for non-exhausted ciphertext")
	}
	tc.eval.DropLevel(ct, ct.Level()-tc.bt.InputLevel())
	// Target level out of range.
	if _, err := tc.bt.Bootstrap(tc.eval, ct, tc.bt.MaxOutputLevel()+1); err == nil {
		t.Fatal("expected error for excessive target level")
	}
	if _, err := tc.bt.Bootstrap(tc.eval, ct, 0); err == nil {
		t.Fatal("expected error for target level 0")
	}
}

func TestLinearTransformRoundTrip(t *testing.T) {
	// The product SFinv * SF must be the identity on slot vectors (the
	// bit-reversals both sides leave out cancel): SlotsToCoeffs followed
	// by CoeffsToSlots gives every slot back, in the order the circuit
	// runs them; this validates the stage matrices independently of the
	// full pipeline.
	tc := newBtContext(t)
	slots := tc.params.Slots()
	in := randomValues(rand.New(rand.NewPCG(17, 3)), slots, 1)
	out := in
	for _, lt := range tc.bt.stages() {
		out = lt.MulVec(out)
	}
	// s2c is SF itself, c2s folds 1/(2B), and B*D = (K+1)*q0.
	gain := tc.bt.d / (2 * float64(tc.bt.bp.K+1) * tc.bt.q0)
	for i := range out {
		want := in[i] * complex(gain, 0)
		if e := out[i] - want; math.Hypot(real(e), imag(e)) > 1e-9*math.Abs(gain) {
			t.Fatalf("SF*SFinv not identity at %d: got %v want %v", i, out[i], want)
		}
	}
}
