package ckks

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"antace/internal/nt"
	"antace/internal/ring"
)

type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	encPk  *Encryptor
	encSk  *Encryptor
	dec    *Decryptor
	eval   *Evaluator
}

func newTestContext(t testing.TB, rotations []int) *testContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, ring.SeedFromInt(7))
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := &EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(rotations, true, sk),
	}
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		encPk:  NewEncryptor(params, pk),
		encSk:  NewEncryptorFromSecretKey(params, sk),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params, keys),
	}
}

func randomComplexVector(n int, bound float64, seed uint64) []complex128 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
	}
	return v
}

func maxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func requireClose(t *testing.T, got, want []complex128, tol float64, msg string) {
	t.Helper()
	if e := maxErr(got, want); e > tol {
		t.Fatalf("%s: max error %.3e exceeds tolerance %.3e", msg, e, tol)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 1)
	pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt, slots)
	requireClose(t, got, values, 1e-8, "encode/decode")
}

func TestEncodeDecodeSparse(t *testing.T) {
	tc := newTestContext(t, nil)
	for _, slots := range []int{1, 2, 8, 64} {
		values := randomComplexVector(slots, 1, uint64(slots))
		pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		got := tc.enc.Decode(pt, slots)
		requireClose(t, got, values, 1e-8, "sparse encode/decode")
	}
}

func TestEncodeCoeffsRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	n := tc.params.N()
	rng := rand.New(rand.NewPCG(2, 3))
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()*2 - 1
	}
	pt, err := tc.enc.EncodeCoeffs(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.DecodeCoeffs(pt)
	for i := range values {
		if math.Abs(got[i]-values[i]) > 1e-8 {
			t.Fatalf("coeff %d: got %f want %f", i, got[i], values[i])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 4)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())

	for name, enc := range map[string]*Encryptor{"pk": tc.encPk, "sk": tc.encSk} {
		ct := enc.Encrypt(pt)
		got := tc.enc.Decode(tc.dec.Decrypt(ct), slots)
		requireClose(t, got, values, 1e-6, name+" encrypt/decrypt")
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	v1 := randomComplexVector(slots, 1, 5)
	v2 := randomComplexVector(slots, 1, 6)
	pt1, _ := tc.enc.Encode(v1, tc.params.MaxLevel(), tc.params.DefaultScale())
	pt2, _ := tc.enc.Encode(v2, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct1 := tc.encPk.Encrypt(pt1)
	ct2 := tc.encPk.Encrypt(pt2)

	sum, err := tc.eval.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = v1[i] + v2[i]
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(sum), slots), want, 1e-6, "ct+ct")

	diff, err := tc.eval.Sub(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = v1[i] - v2[i]
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(diff), slots), want, 1e-6, "ct-ct")

	// ct + pt
	sp, err := tc.eval.AddPlain(ct1, pt2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = v1[i] + v2[i]
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(sp), slots), want, 1e-6, "ct+pt")
}

func TestScaleMismatchRejected(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	v := randomComplexVector(slots, 1, 7)
	pt1, _ := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	pt2, _ := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale()*4)
	ct1 := tc.encPk.Encrypt(pt1)
	ct2 := tc.encPk.Encrypt(pt2)
	if _, err := tc.eval.Add(ct1, ct2); err == nil {
		t.Fatal("expected scale mismatch error")
	}
}

func TestMulPlainRescale(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	v1 := randomComplexVector(slots, 1, 8)
	v2 := randomComplexVector(slots, 1, 9)
	pt1, _ := tc.enc.Encode(v1, tc.params.MaxLevel(), tc.params.DefaultScale())
	pt2, _ := tc.enc.Encode(v2, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt1)

	prod := tc.eval.MulPlain(ct, pt2)
	rescaled, err := tc.eval.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if rescaled.Level() != ct.Level()-1 {
		t.Fatalf("level after rescale: %d, want %d", rescaled.Level(), ct.Level()-1)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = v1[i] * v2[i]
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(rescaled), slots), want, 1e-5, "ct*pt rescaled")
}

func TestMulRelinRescale(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	v1 := randomComplexVector(slots, 1, 10)
	v2 := randomComplexVector(slots, 1, 11)
	pt1, _ := tc.enc.Encode(v1, tc.params.MaxLevel(), tc.params.DefaultScale())
	pt2, _ := tc.enc.Encode(v2, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct1 := tc.encPk.Encrypt(pt1)
	ct2 := tc.encPk.Encrypt(pt2)

	// Without relinearisation the degree-2 ciphertext must still decrypt.
	raw, err := tc.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = v1[i] * v2[i]
	}
	rawRescaled, err := tc.eval.Rescale(raw)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(rawRescaled), slots), want, 1e-4, "degree-2 ct*ct")

	rl, err := tc.eval.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Degree() != 1 {
		t.Fatalf("degree after relin: %d", rl.Degree())
	}
	rlRescaled, err := tc.eval.Rescale(rl)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(rlRescaled), slots), want, 1e-4, "relinearised ct*ct")
}

func TestDeepMultiplicationChain(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 12)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	want := append([]complex128(nil), values...)
	// Square down the whole chain.
	for ct.Level() > 0 {
		var err error
		ct, err = tc.eval.MulRelin(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		ct, err = tc.eval.Rescale(ct)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] *= want[i]
		}
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(ct), slots), want, 1e-2, "squaring chain to level 0")
}

func TestRotate(t *testing.T) {
	rots := []int{1, 2, 5, -1, 64}
	tc := newTestContext(t, rots)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 13)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)

	for _, k := range rots {
		rot, err := tc.eval.Rotate(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, slots)
		for i := range want {
			want[i] = values[((i+k)%slots+slots)%slots]
		}
		requireClose(t, tc.enc.Decode(tc.dec.Decrypt(rot), slots), want, 1e-5, "rotate")
	}

	// Rotation by 0 is identity without keys.
	rot0, err := tc.eval.Rotate(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(rot0), slots), values, 1e-6, "rotate 0")
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 14)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	conj, err := tc.eval.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = cmplx.Conj(values[i])
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(conj), slots), want, 1e-5, "conjugate")
}

func TestConstOps(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 15)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)

	add := tc.eval.AddConst(ct, 3.5)
	want := make([]complex128, slots)
	for i := range want {
		want[i] = values[i] + 3.5
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(add), slots), want, 1e-5, "add const")

	mul := tc.eval.MulByConst(ct, -0.75, tc.params.DefaultScale())
	res, err := tc.eval.Rescale(mul)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = values[i] * -0.75
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(res), slots), want, 1e-5, "mul const")

}

func TestDropLevelAndModSwitch(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 16)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	tc.eval.DropLevel(ct, 2)
	if ct.Level() != tc.params.MaxLevel()-2 {
		t.Fatalf("level after drop: %d", ct.Level())
	}
	requireClose(t, tc.enc.Decode(tc.dec.Decrypt(ct), slots), values, 1e-5, "message survives modulus switch")
}

func TestParameterValidation(t *testing.T) {
	if _, err := NewParameters(ParametersLiteral{LogN: 3, LogQ: []int{40}, LogP: []int{40}, LogScale: 30}); err == nil {
		t.Fatal("expected error for tiny LogN")
	}
	if _, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: nil, LogP: []int{40}, LogScale: 30}); err == nil {
		t.Fatal("expected error for empty LogQ")
	}
	if _, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: []int{40}, LogP: nil, LogScale: 30}); err == nil {
		t.Fatal("expected error for empty LogP")
	}
	p, err := NewParameters(ParametersLiteral{LogN: 12, LogQ: []int{40, 30}, LogP: []int{35}, LogScale: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckSecurity(); err != nil {
		t.Fatalf("105-bit chain at LogN=12 should satisfy security: %v", err)
	}
	big, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: []int{50, 50}, LogP: []int{50}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.CheckSecurity(); err == nil {
		t.Fatal("150-bit chain at LogN=10 must fail the security check")
	}
}

func TestMinLogN(t *testing.T) {
	cases := map[int]int{100: 12, 109: 12, 110: 13, 438: 14, 439: 15, 1500: 16}
	for logQP, want := range cases {
		if got := MinLogN(logQP); got != want {
			t.Errorf("MinLogN(%d) = %d, want %d", logQP, got, want)
		}
	}
}

// nttPrimesRescan is the scan GeneratePrimes used to restart once per
// prime, kept as the reference: count primes ≡ 1 mod nthRoot outward
// from 2^logQ, skipping avoid.
func nttPrimesRescan(logQ, nthRoot uint64, count int, avoid ...uint64) ([]uint64, error) {
	if logQ < 10 || logQ > 61 {
		return nil, fmt.Errorf("logQ %d out of range", logQ)
	}
	skip := make(map[uint64]bool, len(avoid))
	for _, q := range avoid {
		skip[q] = true
	}
	var primes []uint64
	center := uint64(1) << logQ
	up := center + 1
	down := center + 1 - nthRoot
	for len(primes) < count {
		if nt.IsPrime(up) && !skip[up] {
			primes = append(primes, up)
			if len(primes) == count {
				break
			}
		}
		up += nthRoot
		if down > nthRoot && nt.IsPrime(down) && !skip[down] {
			primes = append(primes, down)
		}
		if down > nthRoot {
			down -= nthRoot
		}
		if up >= 1<<62 {
			return nil, fmt.Errorf("exhausted candidates for logQ=%d", logQ)
		}
	}
	return primes[:count], nil
}

// primesPerPrime is the per-prime loop GeneratePrimes replaced: one
// rescan from 2^b for every prime of the chain, in LogQ then LogP order.
func primesPerPrime(lit ParametersLiteral) (qPrimes, pPrimes []uint64, err error) {
	nthRoot := uint64(2) << lit.LogN
	var used []uint64
	pick := func(logQ int) (uint64, error) {
		ps, err := nttPrimesRescan(uint64(logQ), nthRoot, 1, used...)
		if err != nil {
			return 0, err
		}
		used = append(used, ps[0])
		return ps[0], nil
	}
	for _, lq := range lit.LogQ {
		p, err := pick(lq)
		if err != nil {
			return nil, nil, err
		}
		qPrimes = append(qPrimes, p)
	}
	for _, lp := range lit.LogP {
		p, err := pick(lp)
		if err != nil {
			return nil, nil, err
		}
		pPrimes = append(pPrimes, p)
	}
	return qPrimes, pPrimes, nil
}

// TestGeneratePrimesMatchesPerPrime checks the one-scan prime search
// against the per-prime loop on every supported ring degree: uniform,
// mixed 40/60/61-bit and small-prime chains, a 300-prime chain, and the
// out-of-range bit size both reject.
func TestGeneratePrimesMatchesPerPrime(t *testing.T) {
	chain := func(n, bits int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = bits
		}
		return out
	}
	for logN := 4; logN <= 17; logN++ {
		lits := []ParametersLiteral{
			{LogQ: append([]int{60}, chain(24, 40)...), LogP: chain(5, 61)},
			{LogQ: []int{40, 60, 40, 61, 60, 40, 61, 40}, LogP: []int{61, 60, 40, 61}},
			{LogQ: []int{60, 60, 61, 61, 60}, LogP: []int{60, 61}},
			{LogQ: []int{20, 21, 20, 22, 21}, LogP: []int{20, 22}},
			{LogQ: []int{60, 9}, LogP: []int{61}},
		}
		if logN == 10 || logN == 17 {
			lits = append(lits, ParametersLiteral{LogQ: append([]int{60}, chain(294, 40)...), LogP: chain(5, 61)})
		}
		for _, lit := range lits {
			lit.LogN = logN
			q, p, err := GeneratePrimes(lit)
			wq, wp, werr := primesPerPrime(lit)
			if (err == nil) != (werr == nil) {
				t.Fatalf("logN %d, LogQ %v: error %v, per-prime loop %v", logN, lit.LogQ, err, werr)
			}
			if fmt.Sprint(q, p) != fmt.Sprint(wq, wp) {
				t.Fatalf("logN %d, LogQ %v, LogP %v:\n%v %v\nper-prime loop:\n%v %v", logN, lit.LogQ, lit.LogP, q, p, wq, wp)
			}
		}
	}
}

// TestRotateHoistedMatchesRotate: rotations sharing one decomposition
// are byte-for-byte the rotations that decompose on their own, whatever
// order they run in and however often the decomposition was read before.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	rots := []int{1, 2, 5, -3, 64}
	tc := newTestContext(t, rots)
	slots := tc.params.Slots()
	values := randomComplexVector(slots, 1, 55)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)

	h := tc.eval.decomposeForKeySwitch(ct.Value[1])
	defer h.Release()
	for _, k := range append(append([]int{}, rots...), rots[0]) {
		hoisted, err := tc.eval.automorphismHoisted(ct, h, tc.params.RingQ().GaloisElementForRotation(k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.eval.Rotate(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := hoisted.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hb, wb) {
			t.Fatalf("rotation by %d from a shared decomposition differs from Rotate", k)
		}
	}
}

// TestCenteredRowMatchesBigPath: decoding at level 0 centers the one
// residue directly; it must give the float64 the big-integer CRT path
// gives, bit for bit, on random rows of a 60-bit prime (where the
// rounding to float64 is not exact) and at the centering edges 0, 1,
// ⌊q/2⌋, ⌊q/2⌋+1 and q−1.
func TestCenteredRowMatchesBigPath(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{LogN: 8, LogQ: []int{60, 40}, LogP: []int{61}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	rQ := params.RingQ()
	q := rQ.Moduli[0]
	rng := rand.New(rand.NewPCG(29, 31))
	p := rQ.NewPoly(0)
	row := p.Coeffs[0]
	for j := range row {
		row[j] = rng.Uint64N(q)
	}
	copy(row, []uint64{0, 1, q / 2, q/2 + 1, q - 1})
	fast := centeredRow(row, q)
	for j, c := range centeredBigCoeffs(rQ, p) {
		if want := bigToFloat(c); math.Float64bits(fast[j]) != math.Float64bits(want) {
			t.Fatalf("residue %d: fast path %v, big-integer path %v", row[j], fast[j], want)
		}
	}
}

// TestRelinearizeNeverReturnsOperand: a degree-1 ciphertext comes back
// as an equal copy, not as itself, so a caller may release the operand
// and the result independently.
func TestRelinearizeNeverReturnsOperand(t *testing.T) {
	tc := newTestContext(t, nil)
	pt, _ := tc.enc.Encode(randomComplexVector(tc.params.Slots(), 1, 57), tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	out, err := tc.eval.Relinearize(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ct.Value {
		if out.Value[i] == ct.Value[i] || &out.Value[i].Coeffs[0][0] == &ct.Value[i].Coeffs[0][0] {
			t.Fatalf("polynomial %d of the result is the operand's", i)
		}
		if !out.Value[i].Equal(ct.Value[i]) {
			t.Fatalf("polynomial %d of the result differs from the operand", i)
		}
	}
}
