package poly

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMonomialEval(t *testing.T) {
	p := NewMonomial(1, 2, 3) // 1 + 2x + 3x^2
	cases := map[float64]float64{0: 1, 1: 6, -1: 2, 2: 17}
	for x, want := range cases {
		if got := p.Eval(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("p(%g) = %g, want %g", x, got, want)
		}
	}
	if p.Degree() != 2 {
		t.Errorf("degree = %d", p.Degree())
	}
}

func TestDepth(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 31: 5}
	for deg, want := range cases {
		coeffs := make([]float64, deg+1)
		coeffs[deg] = 1
		p := NewMonomial(coeffs...)
		if got := p.Depth(); got != want {
			t.Errorf("Depth(deg %d) = %d, want %d", deg, got, want)
		}
	}
}

func TestChebyshevInterpolateExp(t *testing.T) {
	p := Exp(-1, 1, 10)
	if e := MaxError(p, math.Exp, -1, 1, 1000); e > 1e-9 {
		t.Fatalf("degree-10 Chebyshev exp error %g too large", e)
	}
	// Wider interval, same degree: error grows but stays reasonable.
	p2 := Exp(-4, 4, 15)
	if e := MaxError(p2, math.Exp, -4, 4, 1000); e > 1e-4 {
		t.Fatalf("degree-15 exp on [-4,4] error %g too large", e)
	}
}

func TestChebyshevClenshawMatchesMonomial(t *testing.T) {
	p := ChebyshevInterpolate(math.Sin, -1, 1, 9)
	m, err := p.ToMonomial()
	if err != nil {
		t.Fatal(err)
	}
	for x := -1.0; x <= 1.0; x += 0.05 {
		if math.Abs(p.Eval(x)-m.Eval(x)) > 1e-10 {
			t.Fatalf("Chebyshev and monomial eval disagree at %g", x)
		}
	}
}

func TestToMonomialRequiresUnitInterval(t *testing.T) {
	p := ChebyshevInterpolate(math.Exp, 0, 2, 5)
	if _, err := p.ToMonomial(); err == nil {
		t.Fatal("expected error for non-unit interval")
	}
}

func TestComposeAffine(t *testing.T) {
	p := NewMonomial(0, 0, 1) // x^2
	q := p.ComposeAffine(2, 1)
	// q(x) = (2x+1)^2 = 4x^2 + 4x + 1
	want := []float64{1, 4, 4}
	for i, w := range want {
		if math.Abs(q.Coeffs[i]-w) > 1e-12 {
			t.Fatalf("coeff %d = %g, want %g", i, q.Coeffs[i], w)
		}
	}
}

func TestRemezSqrt(t *testing.T) {
	f := math.Sqrt
	p, eps, err := Remez(f, 0.25, 1, 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	actual := MaxError(p, f, 0.25, 1, 2000)
	if actual > 5e-5 {
		t.Fatalf("Remez sqrt error %g too large", actual)
	}
	// Minimax should beat plain interpolation at the same degree, or at
	// least not be dramatically worse, and the reported eps should match
	// the measured error.
	if actual > 2*eps+1e-12 {
		t.Fatalf("measured error %g inconsistent with levelled error %g", actual, eps)
	}
}

func TestRemezBeatsInterpolationOnRunge(t *testing.T) {
	f := func(x float64) float64 { return 1 / (1 + 25*x*x) }
	interp := ChebyshevInterpolate(f, -1, 1, 14)
	minimax, _, err := Remez(f, -1, 1, 14, 40)
	if err != nil {
		t.Fatal(err)
	}
	ei := MaxError(interp, f, -1, 1, 4000)
	em := MaxError(minimax, f, -1, 1, 4000)
	if em > ei*1.05 {
		t.Fatalf("minimax error %g worse than interpolation %g", em, ei)
	}
}

func TestFNProperties(t *testing.T) {
	for n := 1; n <= 4; n++ {
		f := FN(n)
		if !f.IsOdd() {
			t.Fatalf("f_%d is not odd", n)
		}
		if math.Abs(f.Eval(1)-1) > 1e-9 || math.Abs(f.Eval(-1)+1) > 1e-9 {
			t.Fatalf("f_%d does not fix ±1: f(1)=%g", n, f.Eval(1))
		}
		// Contraction towards sign: |f(x)| >= |x| on (0,1).
		for x := 0.05; x < 1; x += 0.05 {
			v := f.Eval(x)
			if v < x-1e-9 || v > 1+1e-9 {
				t.Fatalf("f_%d(%g) = %g escapes [x, 1]", n, x, v)
			}
		}
	}
}

func TestMinimaxSignStage(t *testing.T) {
	st, err := MinimaxSignStage(0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsOdd() {
		t.Fatal("sign stage must be odd")
	}
	lo, hi := rangeOn(st, 0.3, 1)
	if lo <= 0.3 {
		t.Fatalf("stage does not expand the gap: lo=%g", lo)
	}
	if hi > 1.7 {
		t.Fatalf("stage overshoots badly: hi=%g", hi)
	}
}

func TestSignComposite(t *testing.T) {
	eps := 1.0 / 64
	stages, err := SignComposite(eps, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := signCompositeError(stages, eps); got > math.Exp2(-10) {
		t.Fatalf("composite error %g exceeds 2^-10", got)
	}
	// Symmetry: composition is odd.
	for x := eps; x <= 1; x += 0.07 {
		if math.Abs(EvalComposite(stages, x)+EvalComposite(stages, -x)) > 1e-9 {
			t.Fatalf("composition is not odd at %g", x)
		}
	}
	// Depth must be sane (not hundreds of levels).
	if d := CompositeDepth(stages); d < 4 || d > 40 {
		t.Fatalf("composite depth %d out of plausible band", d)
	}
	if ReLUFromSign(stages) != CompositeDepth(stages)+1 {
		t.Fatal("ReLU depth must be sign depth + 1")
	}
}

// TestSignCompositeMemoised mutates one caller's stages: the next call
// must still return the search's result, equal to a fresh search.
func TestSignCompositeMemoised(t *testing.T) {
	first, err := SignComposite(0.125, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range first {
		for i := range st.Coeffs {
			st.Coeffs[i] = 7
		}
		st.Basis = Chebyshev
	}
	again, err := SignComposite(0.125, 6)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := searchSignComposite(0.125, 6)
	if len(again) != len(fresh) {
		t.Fatalf("%d stages after a caller's mutation, the search gives %d", len(again), len(fresh))
	}
	for i, st := range fresh {
		if fmt.Sprint(*again[i]) != fmt.Sprint(*st) {
			t.Fatalf("stage %d after a caller's mutation: %v, the search gives %v", i, *again[i], *st)
		}
	}
}

func TestSignCompositeRejectsBadEps(t *testing.T) {
	if _, err := SignComposite(0, 10); err == nil {
		t.Fatal("expected error for eps=0")
	}
	if _, err := SignComposite(1.5, 10); err == nil {
		t.Fatal("expected error for eps>1")
	}
}

func TestFunctionCatalog(t *testing.T) {
	if _, err := Log(-1, 1, 5); err == nil {
		t.Fatal("log on negative domain must error")
	}
	lg, err := Log(0.5, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxError(lg, math.Log, 0.5, 2, 1000); e > 1e-6 {
		t.Fatalf("log error %g", e)
	}
	sg := Sigmoid(-6, 6, 15)
	f := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	if e := MaxError(sg, f, -6, 6, 1000); e > 1e-3 {
		t.Fatalf("sigmoid error %g", e)
	}
	th := Tanh(-4, 4, 23)
	if e := MaxError(th, math.Tanh, -4, 4, 1000); e > 1e-3 {
		t.Fatalf("tanh error %g", e)
	}
	gl := GELU(-4, 4, 16)
	gf := func(x float64) float64 { return 0.5 * x * (1 + math.Erf(x/math.Sqrt2)) }
	if e := MaxError(gl, gf, -4, 4, 1000); e > 1e-2 {
		t.Fatalf("gelu error %g", e)
	}
	if _, err := InvSqrt(0, 1, 5); err == nil {
		t.Fatal("inv-sqrt domain must be positive")
	}
}

func TestClenshawProperty(t *testing.T) {
	// Property: Chebyshev evaluation is linear in the coefficients.
	f := func(c0, c1, c2 float64) bool {
		p := &Polynomial{Coeffs: []float64{c0, c1, c2}, Basis: Chebyshev, A: -1, B: 1}
		q0 := &Polynomial{Coeffs: []float64{c0, 0, 0}, Basis: Chebyshev, A: -1, B: 1}
		q1 := &Polynomial{Coeffs: []float64{0, c1, 0}, Basis: Chebyshev, A: -1, B: 1}
		q2 := &Polynomial{Coeffs: []float64{0, 0, c2}, Basis: Chebyshev, A: -1, B: 1}
		for _, x := range []float64{-0.9, -0.3, 0, 0.4, 0.8} {
			sum := q0.Eval(x) + q1.Eval(x) + q2.Eval(x)
			if math.Abs(p.Eval(x)-sum) > 1e-9*(1+math.Abs(sum)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(a, b, c int8) bool {
		return f(float64(a)/16, float64(b)/16, float64(c)/16)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
