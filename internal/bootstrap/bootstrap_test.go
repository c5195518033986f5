package bootstrap

import (
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
	// Chain layout: q0 (60 bits), two 40-bit compute levels, then the
	// 60-bit levels of the bootstrap circuit itself; four special primes,
	// the count the compiler picks for a 14-prime chain.
	logQ := []int{60, 40, 40}
	for i := 0; i < CircuitDepth(Parameters{}); i++ {
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

func TestBootstrapRefreshesCiphertext(t *testing.T) {
	tc := newBtContext(t)
	slots := tc.params.Slots()
	rng := rand.New(rand.NewPCG(5, 11))
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encPk.Encrypt(pt)
	// Exhaust the ciphertext.
	tc.eval.DropLevel(ct, ct.Level())
	if ct.Level() != 0 {
		t.Fatal("setup: ciphertext not at level 0")
	}

	target := tc.bt.MaxOutputLevel()
	out, err := tc.bt.Bootstrap(tc.eval, ct, target)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level() != target {
		t.Fatalf("bootstrap output level %d, want %d", out.Level(), target)
	}
	got := tc.enc.Decode(tc.dec.Decrypt(out), slots)
	worst := 0.0
	for i := range got {
		re := math.Abs(real(got[i]) - real(values[i]))
		im := math.Abs(imag(got[i]) - imag(values[i]))
		if re > worst {
			worst = re
		}
		if im > worst {
			worst = im
		}
	}
	t.Logf("bootstrap max error: %.3e (~%.1f bits)", worst, -math.Log2(worst))
	if worst > 5e-4 {
		t.Fatalf("bootstrap error %g too large", worst)
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
	tc.eval.DropLevel(ct, ct.Level())

	// Refresh to level 2 only (the paper's minimal-level strategy): the
	// circuit must sit entirely on the large-prime levels above the
	// compute region, so 2 is the lowest target this chain supports.
	out, err := tc.bt.Bootstrap(tc.eval, ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level() != 2 {
		t.Fatalf("bootstrap output level %d, want 2", out.Level())
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

	// Not at level 0.
	if _, err := tc.bt.Bootstrap(tc.eval, ct, 1); err == nil {
		t.Fatal("expected error for non-exhausted ciphertext")
	}
	tc.eval.DropLevel(ct, ct.Level())
	// Target level out of range.
	if _, err := tc.bt.Bootstrap(tc.eval, ct, tc.bt.MaxOutputLevel()+1); err == nil {
		t.Fatal("expected error for excessive target level")
	}
	if _, err := tc.bt.Bootstrap(tc.eval, ct, 0); err == nil {
		t.Fatal("expected error for target level 0")
	}
}

func TestLinearTransformRoundTrip(t *testing.T) {
	// The product SF * SFinv must be the identity on slot vectors (the
	// bit-reversals both sides leave out cancel); this validates the stage
	// matrices independently of the full pipeline.
	tc := newBtContext(t)
	slots := tc.params.Slots()
	rng := rand.New(rand.NewPCG(17, 3))
	in := make([]complex128, slots)
	for i := range in {
		in[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	out := in
	for _, lt := range tc.bt.stages() {
		out = lt.MulVec(out)
	}
	// c2s folds 1/(2B), s2c folds q0/(2*pi*D): combined gain is
	// q0/(4*pi*B*D), and B*D = (K+1)*q0.
	gain := 1 / (4 * math.Pi * float64(tc.bt.bp.K+1))
	for i := range out {
		want := in[i] * complex(gain, 0)
		if e := out[i] - want; math.Hypot(real(e), imag(e)) > 1e-9*math.Abs(gain) {
			t.Fatalf("SF*SFinv not identity at %d: got %v want %v", i, out[i], want)
		}
	}
}
