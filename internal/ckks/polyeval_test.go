package ckks

import (
	"math"
	"math/bits"
	"testing"
	"time"

	"antace/internal/poly"
	"antace/internal/poly/polytest"
	"antace/internal/ring"
)

// deepTestContext builds a parameter set with enough levels for
// polynomial evaluation tests.
func deepTestContext(t testing.TB, levels int) *testContext {
	t.Helper()
	logQ := make([]int, levels+1)
	logQ[0] = 50
	for i := 1; i <= levels; i++ {
		logQ[i] = 40
	}
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     logQ,
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, ring.SeedFromInt(99))
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := &EvaluationKeySet{Rlk: kg.GenRelinearizationKey(sk)}
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		encPk:  NewEncryptor(params, pk),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params, keys),
	}
}

func evalPolyCase(t *testing.T, tc *testContext, p *poly.Polynomial, inputs []float64, tol float64) {
	t.Helper()
	slots := tc.params.Slots()
	vals := make([]float64, slots)
	for i := range vals {
		vals[i] = inputs[i%len(inputs)]
	}
	pt, err := tc.enc.EncodeReal(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encPk.Encrypt(pt)
	pl := poly.NewPlan(p)
	res, err := tc.eval.EvaluatePolynomial(ct, pl, tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.DecodeReal(tc.dec.Decrypt(res), slots)
	for i := range got {
		want := p.Eval(vals[i])
		if math.Abs(got[i]-want) > tol {
			t.Fatalf("p(%g): got %g, want %g (err %.2e)", vals[i], got[i], want, math.Abs(got[i]-want))
		}
	}
	if consumed := tc.params.MaxLevel() - res.Level(); consumed != pl.Depth() {
		t.Fatalf("evaluation consumed %d levels, the plan says %d", consumed, pl.Depth())
	}
}

// TestEvaluatePolynomialExecutesThePlan is the contract between the plan
// and the evaluator, on every generated shape of degree 1…63 in both
// bases: the output sits exactly Depth() levels below the input and
// carries exactly the requested scale, the values are the polynomial's, and
// the evaluator key-switched as often as the plan relinearises.
func TestEvaluatePolynomialExecutesThePlan(t *testing.T) {
	tc := deepTestContext(t, 8)
	slots := tc.params.Slots()
	// Secret-key encryption: its fresh noise is a twentieth of a public
	// key's, and T_n multiplies whatever noise the input carries by up to
	// n² at the ends of the interval — with degree 63 that, not the
	// evaluator, would set the error.
	encSk := NewEncryptorFromSecretKey(tc.params, tc.sk)
	keySwitches := 0
	tc.eval.KernelObserver = func(op string, _ time.Duration) {
		if op == opDecompModUp {
			keySwitches++
		}
	}
	defer func() { tc.eval.KernelObserver = nil }()
	for _, p := range polytest.Cases() {
		pl := poly.NewPlan(p)
		lo, hi := -1.0, 1.0
		if pl.Affine {
			lo, hi = p.A, p.B
		}
		vals := make([]float64, slots)
		for i := range vals {
			vals[i] = lo + (hi-lo)*float64(i)/float64(slots-1)
		}
		pt, err := tc.enc.EncodeReal(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		// An odd target scale: the plan must land on it, not near it.
		target := tc.params.DefaultScale() * 1.0078125
		keySwitches = 0
		res, err := tc.eval.EvaluatePolynomial(encSk.Encrypt(pt), pl, target)
		if err != nil {
			t.Fatalf("degree %d basis %d: %v", p.Degree(), p.Basis, err)
		}
		if want := bits.Len(uint(p.Degree())); pl.Depth() != want && !(pl.Affine && pl.Depth() == want+1) {
			t.Fatalf("degree %d: plan depth %d", p.Degree(), pl.Depth())
		}
		if res.Level() != tc.params.MaxLevel()-pl.Depth() || res.Scale != target || res.Degree() != 1 {
			t.Fatalf("degree %d basis %d: level %d (plan depth %d), scale %g (target %g), degree %d",
				p.Degree(), p.Basis, res.Level(), pl.Depth(), res.Scale, target, res.Degree())
		}
		if want := pl.Count(poly.StepRelin); keySwitches != want {
			t.Fatalf("degree %d basis %d: %d key switches, the plan relinearises %d times", p.Degree(), p.Basis, keySwitches, want)
		}
		got := tc.enc.DecodeReal(tc.dec.Decrypt(res), slots)
		for i := range got {
			if want := p.Eval(vals[i]); math.Abs(got[i]-want) > math.Exp2(-20) {
				t.Fatalf("degree %d basis %d: p(%g) = %g, want %g (err %.2e)", p.Degree(), p.Basis, vals[i], got[i], want, math.Abs(got[i]-want))
			}
		}
	}
}

func TestEvaluatePolynomialMonomial(t *testing.T) {
	tc := deepTestContext(t, 8)
	inputs := []float64{-1, -0.6, -0.25, 0, 0.3, 0.71, 1}
	// Low degree (direct path).
	evalPolyCase(t, tc, poly.NewMonomial(0.5, -1, 0.25), inputs, 1e-5)
	// Degree 7, odd (the f_3 flattening polynomial).
	evalPolyCase(t, tc, poly.FN(3), inputs, 1e-4)
	// Degree 15 with mixed parity.
	coeffs := make([]float64, 16)
	for i := range coeffs {
		coeffs[i] = 1 / float64(i+1) * math.Pow(-1, float64(i))
	}
	evalPolyCase(t, tc, poly.NewMonomial(coeffs...), inputs, 1e-3)
}

func TestEvaluatePolynomialChebyshev(t *testing.T) {
	tc := deepTestContext(t, 8)
	inputs := []float64{-0.95, -0.5, 0, 0.33, 0.8, 0.99}
	p := poly.ChebyshevInterpolate(math.Sin, -1, 1, 15)
	evalPolyCase(t, tc, p, inputs, 1e-3)
}

func TestEvaluatePolynomialChebyshevShiftedDomain(t *testing.T) {
	tc := deepTestContext(t, 9)
	inputs := []float64{0.1, 0.5, 1.2, 2.7, 3.9}
	p := poly.Exp(0, 4, 15)
	slots := tc.params.Slots()
	vals := make([]float64, slots)
	for i := range vals {
		vals[i] = inputs[i%len(inputs)]
	}
	pt, _ := tc.enc.EncodeReal(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	res, err := tc.eval.EvaluatePolynomial(ct, poly.NewPlan(p), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.DecodeReal(tc.dec.Decrypt(res), slots)
	for i := range got {
		want := math.Exp(vals[i])
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("exp(%g): got %g, want %g", vals[i], got[i], want)
		}
	}
}

func TestEvaluateComposite(t *testing.T) {
	tc := deepTestContext(t, 13)
	slots := tc.params.Slots()
	stages := []*poly.Polynomial{poly.FN(3), poly.FN(3), poly.FN(3)}
	vals := make([]float64, slots)
	for i := range vals {
		vals[i] = -1 + 2*float64(i)/float64(slots-1)
	}
	pt, _ := tc.enc.EncodeReal(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	res, err := tc.eval.EvaluateComposite(ct, stages)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.DecodeReal(tc.dec.Decrypt(res), slots)
	for i := range got {
		want := poly.EvalComposite(stages, vals[i])
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("composite(%g): got %g, want %g", vals[i], got[i], want)
		}
	}
}

func TestEvaluateReLU(t *testing.T) {
	tc := deepTestContext(t, 20)
	slots := tc.params.Slots()
	stages, err := poly.SignComposite(0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	bound := 8.0
	vals := make([]float64, slots)
	for i := range vals {
		vals[i] = -bound + 2*bound*float64(i)/float64(slots-1)
	}
	pt, _ := tc.enc.EncodeReal(vals, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	res, err := tc.eval.EvaluateReLU(ct, stages, bound)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.DecodeReal(tc.dec.Decrypt(res), slots)
	for i := range got {
		want := math.Max(0, vals[i])
		tol := 0.05 * bound // values inside the eps-gap are approximated loosely
		if math.Abs(vals[i])/bound > 0.3 {
			tol = 0.02
		}
		if math.Abs(got[i]-want) > tol {
			t.Fatalf("relu(%g): got %g, want %g", vals[i], got[i], want)
		}
	}
}
