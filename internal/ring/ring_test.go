package ring

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"antace/internal/nt"
)

func testRing(t testing.TB, logN int, levels int) *Ring {
	t.Helper()
	n := 1 << logN
	primes, err := nt.GenerateNTTPrimes(45, uint64(2*n), levels)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomPoly(r *Ring, level int, seed uint64) *Poly {
	p := r.NewPoly(level)
	s := NewSampler(r, SeedFromInt(seed))
	s.Uniform(p)
	return p
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(100, []uint64{65537}); err == nil {
		t.Fatal("expected error for non power-of-two degree")
	}
	if _, err := NewRing(16, nil); err == nil {
		t.Fatal("expected error for empty modulus chain")
	}
	if _, err := NewRing(1<<10, []uint64{7681}); err == nil {
		t.Fatal("expected error for modulus not 1 mod 2N")
	}
	if _, err := NewRing(1<<10, []uint64{(1 << 11) * 6}); err == nil {
		t.Fatal("expected error for composite modulus")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	r := testRing(t, 8, 3)
	p := randomPoly(r, 2, 1)
	q := p.CopyNew()
	r.NTT(q, q)
	if p.Equal(q) {
		t.Fatal("NTT did not change the polynomial")
	}
	r.INTT(q, q)
	if !p.Equal(q) {
		t.Fatal("INTT(NTT(p)) != p")
	}
}

func TestNTTMatchesNaiveMul(t *testing.T) {
	r := testRing(t, 6, 2)
	p1 := randomPoly(r, 1, 2)
	p2 := randomPoly(r, 1, 3)
	want := r.NewPoly(1)
	r.MulPolyNaive(p1, p2, want)

	a, b := p1.CopyNew(), p2.CopyNew()
	r.NTT(a, a)
	r.NTT(b, b)
	got := r.NewPoly(1)
	r.MulCoeffs(a, b, got)
	r.INTT(got, got)
	if !got.Equal(want) {
		t.Fatal("NTT-based multiplication disagrees with schoolbook negacyclic convolution")
	}
}

func TestNTTLinearity(t *testing.T) {
	r := testRing(t, 7, 2)
	p1 := randomPoly(r, 1, 4)
	p2 := randomPoly(r, 1, 5)
	sum := r.NewPoly(1)
	r.Add(p1, p2, sum)
	r.NTT(sum, sum)

	a, b := p1.CopyNew(), p2.CopyNew()
	r.NTT(a, a)
	r.NTT(b, b)
	sum2 := r.NewPoly(1)
	r.Add(a, b, sum2)
	if !sum.Equal(sum2) {
		t.Fatal("NTT is not additive")
	}
}

func TestAddSubNegIdentities(t *testing.T) {
	r := testRing(t, 6, 3)
	p := randomPoly(r, 2, 6)
	zero := r.NewPoly(2)
	out := r.NewPoly(2)

	r.Sub(p, p, out)
	if !out.Equal(zero) {
		t.Fatal("p - p != 0")
	}
	neg := r.NewPoly(2)
	r.Neg(p, neg)
	r.Add(p, neg, out)
	if !out.Equal(zero) {
		t.Fatal("p + (-p) != 0")
	}
	r.Add(p, zero, out)
	if !out.Equal(p) {
		t.Fatal("p + 0 != p")
	}
}

func TestMulScalar(t *testing.T) {
	r := testRing(t, 6, 2)
	p := randomPoly(r, 1, 7)
	out := r.NewPoly(1)
	r.MulScalar(p, 3, out)
	want := r.NewPoly(1)
	r.Add(p, p, want)
	r.Add(want, p, want)
	if !out.Equal(want) {
		t.Fatal("3*p != p+p+p")
	}
}

func TestShift(t *testing.T) {
	r := testRing(t, 5, 1)
	p := r.NewPoly(0)
	p.Coeffs[0][0] = 1 // p(X) = 1
	out := r.NewPoly(0)
	r.Shift(p, 1, out) // X
	if out.Coeffs[0][1] != 1 {
		t.Fatal("shift by 1 of constant 1 should be X")
	}
	// X^(N-1) * X^2 = X^(N+1) = -X
	p.Zero()
	p.Coeffs[0][r.N-1] = 1
	r.Shift(p, 2, out)
	q := r.Moduli[0]
	if out.Coeffs[0][1] != q-1 {
		t.Fatalf("negacyclic wraparound failed: got %d want %d", out.Coeffs[0][1], q-1)
	}
	// Round trip.
	p = randomPoly(r, 0, 8)
	r.Shift(p, 5, out)
	back := r.NewPoly(0)
	r.Shift(out, -5, back)
	if !back.Equal(p) {
		t.Fatal("shift round trip failed")
	}
}

func TestAutomorphismCoeffDomain(t *testing.T) {
	r := testRing(t, 5, 2)
	p := randomPoly(r, 1, 9)
	// gal = 1 is the identity.
	out := r.NewPoly(1)
	r.Automorphism(p, 1, out)
	if !out.Equal(p) {
		t.Fatal("automorphism by 1 is not identity")
	}
	// Composition: aut_g1(aut_g2(p)) == aut_{g1*g2 mod 2N}(p).
	g1, g2 := uint64(5), uint64(25)
	a := r.NewPoly(1)
	b := r.NewPoly(1)
	r.Automorphism(p, g2, a)
	r.Automorphism(a, g1, b)
	want := r.NewPoly(1)
	r.Automorphism(p, g1*g2%uint64(2*r.N), want)
	if !b.Equal(want) {
		t.Fatal("automorphism composition failed")
	}
}

func TestAutomorphismNTTMatchesCoeff(t *testing.T) {
	r := testRing(t, 6, 2)
	p := randomPoly(r, 1, 10)
	for _, gal := range []uint64{5, 25, 3, uint64(2*r.N - 1), r.GaloisElementForRotation(3)} {
		want := r.NewPoly(1)
		r.Automorphism(p, gal, want)

		nttP := p.CopyNew()
		r.NTT(nttP, nttP)
		idx := r.AutomorphismNTTIndex(gal)
		got := r.NewPoly(1)
		r.AutomorphismNTT(nttP, idx, got)
		r.INTT(got, got)
		if !got.Equal(want) {
			t.Fatalf("NTT-domain automorphism mismatch for gal=%d", gal)
		}
	}
}

func TestGaloisElements(t *testing.T) {
	r := testRing(t, 6, 1)
	if r.GaloisElementForRotation(0) != 1 {
		t.Fatal("rotation by 0 should be identity element")
	}
	// 5^k composition: rot(a)*rot(b) = rot(a+b).
	n2 := uint64(2 * r.N)
	ga, gb := r.GaloisElementForRotation(3), r.GaloisElementForRotation(4)
	if ga*gb%n2 != r.GaloisElementForRotation(7) {
		t.Fatal("rotation Galois elements do not compose additively")
	}
	if r.GaloisElementForConjugation() != n2-1 {
		t.Fatal("conjugation element should be 2N-1")
	}
	// Negative rotation composes to identity with positive.
	gn := r.GaloisElementForRotation(-3)
	if ga*gn%n2 != 1 {
		t.Fatal("rot(3)*rot(-3) != identity")
	}
}

func TestDivRoundByLastModulus(t *testing.T) {
	r := testRing(t, 5, 3)
	rng := rand.New(rand.NewPCG(11, 12))
	// Build a polynomial whose integer coefficients are known and small
	// enough to recover: x in [0, q0*q1*q2) but we use small values.
	l := 2
	p := r.NewPoly(l)
	want := make([]uint64, r.N)
	ql := r.Moduli[l]
	for j := 0; j < r.N; j++ {
		x := rng.Uint64N(1 << 40)
		for i := 0; i <= l; i++ {
			p.Coeffs[i][j] = x % r.Moduli[i]
		}
		want[j] = (x + ql/2) / ql // round(x/ql)
	}
	out := r.NewPoly(l)
	r.DivRoundByLastModulus(p, out)
	if out.Level() != l-1 {
		t.Fatalf("level after rescale = %d, want %d", out.Level(), l-1)
	}
	for i := 0; i < l; i++ {
		for j := 0; j < r.N; j++ {
			if out.Coeffs[i][j] != want[j]%r.Moduli[i] {
				t.Fatalf("rescale row %d coeff %d: got %d want %d", i, j, out.Coeffs[i][j], want[j]%r.Moduli[i])
			}
		}
	}
}

func TestDivRoundByLastModulusNTT(t *testing.T) {
	r := testRing(t, 5, 3)
	p := randomPoly(r, 2, 13)
	// Reference: coefficient-domain rescale.
	want := r.NewPoly(2)
	r.DivRoundByLastModulus(p, want)

	nttP := p.CopyNew()
	r.NTT(nttP, nttP)
	got := r.NewPoly(2)
	r.DivRoundByLastModulusNTT(nttP, got)
	r.INTT(got, got)
	if !got.Equal(want) {
		t.Fatal("NTT-domain rescale disagrees with coefficient-domain rescale")
	}
}

func TestModUpDigitQP(t *testing.T) {
	n := 1 << 5
	qPrimes, err := nt.GenerateNTTPrimes(40, uint64(2*n), 4)
	if err != nil {
		t.Fatal(err)
	}
	pPrimes, err := nt.GenerateNTTPrimes(41, uint64(2*n), 2, qPrimes...)
	if err != nil {
		t.Fatal(err)
	}
	rQ, err := NewRing(n, qPrimes)
	if err != nil {
		t.Fatal(err)
	}
	rP, err := NewRing(n, pPrimes)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBasisExtender(rQ, rP)

	// Digit spans rows [1,3). Choose x < d1*d2 so the lift is near-exact
	// (up to +u*D which we check modulo small bound).
	level := 3
	pQ := rQ.NewPoly(level)
	xs := make([]*big.Int, n)
	rng := rand.New(rand.NewPCG(1, 7))
	D := new(big.Int).Mul(new(big.Int).SetUint64(qPrimes[1]), new(big.Int).SetUint64(qPrimes[2]))
	for j := 0; j < n; j++ {
		x := new(big.Int).SetUint64(rng.Uint64())
		x.Lsh(x, 64)
		x.Or(x, new(big.Int).SetUint64(rng.Uint64()))
		xs[j] = x.Mod(x, D)
		for i := 1; i < 3; i++ {
			pQ.Coeffs[i][j] = new(big.Int).Mod(xs[j], new(big.Int).SetUint64(qPrimes[i])).Uint64()
		}
	}
	outQ := rQ.NewPoly(level)
	outP := rP.NewPoly(rP.MaxLevel())
	be.ModUpDigitQP(pQ, 1, 3, level, outQ, outP)

	check := func(val uint64, q uint64, x *big.Int) bool {
		// Accept x + u*D for |u| <= 2.
		for u := int64(-2); u <= 2; u++ {
			t := new(big.Int).Add(x, new(big.Int).Mul(big.NewInt(u), D))
			if new(big.Int).Mod(t, new(big.Int).SetUint64(q)).Uint64() == val {
				return true
			}
		}
		return false
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= level; i++ {
			if !check(outQ.Coeffs[i][j], qPrimes[i], xs[j]) {
				t.Fatalf("Q row %d coeff %d: lift error too large", i, j)
			}
		}
		for i := range pPrimes {
			if !check(outP.Coeffs[i][j], pPrimes[i], xs[j]) {
				t.Fatalf("P row %d coeff %d: lift error too large", i, j)
			}
		}
	}
}

func TestModDownQP(t *testing.T) {
	n := 1 << 5
	qPrimes, err := nt.GenerateNTTPrimes(40, uint64(2*n), 3)
	if err != nil {
		t.Fatal(err)
	}
	pPrimes, err := nt.GenerateNTTPrimes(41, uint64(2*n), 2, qPrimes...)
	if err != nil {
		t.Fatal(err)
	}
	rQ, _ := NewRing(n, qPrimes)
	rP, _ := NewRing(n, pPrimes)
	be := NewBasisExtender(rQ, rP)

	P := rP.ModulusAtLevel(rP.MaxLevel())
	level := 2
	// x = P*y + e with small e; ModDown should recover y (± small error).
	rng := rand.New(rand.NewPCG(3, 9))
	pQ := rQ.NewPoly(level)
	pP := rP.NewPoly(rP.MaxLevel())
	ys := make([]uint64, n)
	for j := 0; j < n; j++ {
		y := rng.Uint64N(1 << 30)
		e := int64(rng.Uint64N(100)) - 50
		ys[j] = y
		x := new(big.Int).Mul(P, new(big.Int).SetUint64(y))
		x.Add(x, big.NewInt(e))
		for i := 0; i <= level; i++ {
			pQ.Coeffs[i][j] = new(big.Int).Mod(x, new(big.Int).SetUint64(qPrimes[i])).Uint64()
		}
		for i := range pPrimes {
			pP.Coeffs[i][j] = new(big.Int).Mod(x, new(big.Int).SetUint64(pPrimes[i])).Uint64()
		}
	}
	be.ModDownQP(pQ, pP)
	for j := 0; j < n; j++ {
		for i := 0; i <= level; i++ {
			got := pQ.Coeffs[i][j]
			q := qPrimes[i]
			// Accept y + u for small |u| (conversion error).
			ok := false
			for u := int64(-4); u <= 4; u++ {
				want := new(big.Int).Add(new(big.Int).SetUint64(ys[j]), big.NewInt(u))
				if new(big.Int).Mod(want, new(big.Int).SetUint64(q)).Uint64() == got {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("ModDown row %d coeff %d: got %d, want ~%d", i, j, got, ys[j])
			}
		}
	}
}

func TestSamplerDistributions(t *testing.T) {
	r := testRing(t, 10, 2)
	s := NewSampler(r, SeedFromInt(42))

	tern := r.NewPoly(1)
	s.Ternary(tern)
	q0 := r.Moduli[0]
	counts := map[int]int{}
	for j := 0; j < r.N; j++ {
		v := tern.Coeffs[0][j]
		switch v {
		case 0:
			counts[0]++
		case 1:
			counts[1]++
		case q0 - 1:
			counts[-1]++
		default:
			t.Fatalf("ternary coefficient %d not in {-1,0,1}", v)
		}
		// Rows must agree as integers.
		v1 := tern.Coeffs[1][j]
		q1 := r.Moduli[1]
		if (v == 0 && v1 != 0) || (v == 1 && v1 != 1) || (v == q0-1 && v1 != q1-1) {
			t.Fatal("ternary rows disagree")
		}
	}
	if counts[0] < r.N/3 || counts[0] > 2*r.N/3 {
		t.Fatalf("ternary zero count %d implausible for N=%d", counts[0], r.N)
	}

	gauss := r.NewPoly(0)
	s.Gaussian(gauss)
	var sum, sumSq float64
	for j := 0; j < r.N; j++ {
		v := gauss.Coeffs[0][j]
		var x float64
		if v > q0/2 {
			x = -float64(q0 - v)
		} else {
			x = float64(v)
		}
		if x < -20 || x > 20 {
			t.Fatalf("gaussian sample %f outside 6-sigma truncation", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(r.N)
	std := sumSq/float64(r.N) - mean*mean
	if mean < -0.5 || mean > 0.5 {
		t.Fatalf("gaussian mean %f too far from 0", mean)
	}
	if std < 6 || std > 16 { // sigma^2 = 10.24
		t.Fatalf("gaussian variance %f too far from 10.24", std)
	}

	// Determinism: same seed, same output.
	s2 := NewSampler(r, SeedFromInt(42))
	tern2 := r.NewPoly(1)
	s2.Ternary(tern2)
	if !tern.Equal(tern2) {
		t.Fatal("sampler is not deterministic under a fixed seed")
	}
}

func TestPolyHelpers(t *testing.T) {
	r := testRing(t, 4, 3)
	p := randomPoly(r, 2, 14)
	c := p.CopyNew()
	if !c.Equal(p) {
		t.Fatal("CopyNew not equal")
	}
	c.Coeffs[0][0]++
	if c.Equal(p) {
		t.Fatal("CopyNew aliases original")
	}
	p.Resize(1, r.N)
	if p.Level() != 1 {
		t.Fatal("Resize down failed")
	}
	p.Resize(2, r.N)
	if p.Level() != 2 {
		t.Fatal("Resize up failed")
	}
	for _, v := range p.Coeffs[2] {
		if v != 0 {
			// Resize reuses the old backing row, which still holds data;
			// the contract is only that rows exist. Zero explicitly.
			break
		}
	}
	p.Zero()
	for i := range p.Coeffs {
		for _, v := range p.Coeffs[i] {
			if v != 0 {
				t.Fatal("Zero left nonzero coefficient")
			}
		}
	}
}

// BenchmarkNTT times one forward and one inverse row transform from the
// workloads' ring degrees (2^9, 2^10) up to 2^14.
func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{9, 10, 12, 13, 14} {
		r := testRing(b, logN, 1)
		p := randomPoly(r, 0, 1)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.nttRow(p.Coeffs[0], 0)
			}
		})
		b.Run("INTT/"+sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.inttRow(p.Coeffs[0], 0)
			}
		})
	}
}

func sizeName(logN int) string {
	return "N=2^" + string(rune('0'+logN/10)) + string(rune('0'+logN%10))
}
