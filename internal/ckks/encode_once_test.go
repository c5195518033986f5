package ckks

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInt64PathMatchesBigPath is the encoder's differential: whenever
// every scaled coefficient is below 2^53 the residues come from machine
// integer arithmetic, and they must be the ones the big-integer path
// gives — over random vectors, levels and scales, moduli above and below
// the coefficients, negative values and exact multiples of a modulus.
func TestInt64PathMatchesBigPath(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN: 6, LogQ: []int{60, 45, 30, 30}, LogP: []int{60}, LogScale: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	r := params.RingQ()
	viaBig := func(scaled []float64, level int, scale float64) *Plaintext {
		pt := &Plaintext{Value: r.NewPoly(level), Scale: scale}
		setBigCoeffs(r, pt.Value, roundToBig(scaled))
		r.NTT(pt.Value, pt.Value)
		return pt
	}
	rng := rand.New(rand.NewPCG(3, 5))
	n := params.N()
	for trial := 0; trial < 200; trial++ {
		level := rng.IntN(params.MaxLevel() + 1)
		mag := math.Exp2(float64(rng.IntN(53)) + rng.Float64()) // up to just under 2^53
		mag = math.Min(mag, exactInt64-1)
		scaled := make([]float64, n)
		for i := range scaled {
			switch rng.IntN(8) {
			case 0: // stays zero
			case 1:
				scaled[i] = -float64(r.Moduli[rng.IntN(level+1)] % (1 << 52)) // negative, possibly ≡ 0
			case 2:
				scaled[i] = float64(r.Moduli[rng.IntN(level+1)]%(1<<50)) * float64(rng.IntN(5)-2) // ±multiple of a small modulus, when the level has one
			default:
				scaled[i] = (rng.Float64()*2 - 1) * mag
			}
		}
		if _, ok := roundToInt64(scaled); !ok {
			t.Fatalf("trial %d: vector below 2^53 refused by the integer path", trial)
		}
		got := enc.fromScaledCoeffs(scaled, level, mag, false)
		if want := viaBig(scaled, level, mag); !got.Value.Equal(want.Value) || got.Scale != want.Scale {
			t.Fatalf("trial %d (level %d, magnitude %g): integer path and big path disagree", trial, level, mag)
		}

		// One coefficient at or past 2^53 sends the whole vector down the
		// big path, which must still be what the caller gets.
		scaled[rng.IntN(n)] = math.Copysign(exactInt64*math.Exp2(float64(rng.IntN(40))), rng.Float64()-0.5)
		if _, ok := roundToInt64(scaled); ok {
			t.Fatalf("trial %d: a coefficient ≥ 2^53 was accepted by the integer path", trial)
		}
		got = enc.fromScaledCoeffs(scaled, level, mag, false)
		if want := viaBig(scaled, level, mag); !got.Value.Equal(want.Value) {
			t.Fatalf("trial %d: big path through fromScaledCoeffs disagrees with itself", trial)
		}
	}

	// Through the public API: a scale that pushes coefficients past 2^53
	// must still encode something that decodes to the input.
	vals := []float64{1, -0.5, 0.25, 0.75}
	pt, err := enc.EncodeReal(vals, params.MaxLevel(), math.Exp2(58))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range enc.DecodeReal(pt, len(vals)) {
		if math.Abs(v-vals[i]) > 1e-9 {
			t.Fatalf("slot %d decodes to %g after a 2^58-scale encode, want %g", i, v, vals[i])
		}
	}
}

// TestEncodeQP: the rows EncodeQP adds are the same integer polynomial as
// the Q rows, reduced modulo each special prime, on both rounding paths;
// the Q rows are Encode's; and the QP memo charges for the extra rows.
func TestEncodeQP(t *testing.T) {
	tc := newTestContext(t, nil)
	rQ, rP := tc.params.RingQ(), tc.params.RingP()
	level := 2
	vals := randomComplexVector(tc.params.Slots(), 1, 11)
	for _, scale := range []float64{math.Exp2(40), math.Exp2(64)} { // int64 path, big path
		pt, err := tc.enc.EncodeQP(vals, level, scale)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := tc.enc.Encode(vals, level, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Value.Equal(plain.Value) || plain.ValueP != nil {
			t.Fatalf("scale %g: EncodeQP and Encode disagree over Q, or Encode grew P rows", scale)
		}
		coeffQ := pt.Value.CopyNew()
		rQ.INTT(coeffQ, coeffQ)
		ints := centeredBigCoeffs(rQ, coeffQ)
		coeffP := pt.ValueP.CopyNew()
		rP.INTT(coeffP, coeffP)
		if coeffP.Level() != rP.MaxLevel() {
			t.Fatalf("P rows at level %d, want %d", coeffP.Level(), rP.MaxLevel())
		}
		tmp := new(big.Int)
		for j, p := range rP.Moduli {
			for k, c := range ints {
				if want := tmp.Mod(c, new(big.Int).SetUint64(p)).Uint64(); coeffP.Coeffs[j][k] != want {
					t.Fatalf("scale %g: coefficient %d is %d mod special prime %d, want %d", scale, k, coeffP.Coeffs[j][k], j, want)
				}
			}
		}
	}
	memo := NewPlaintextMemoQP(tc.params, PlaintextMemoCap)
	if _, _, err := memo.Get(PlaintextKey{Level: level, Scale: 1}, func() (*Plaintext, error) { return tc.enc.EncodeQP(vals, level, 1) }); err != nil {
		t.Fatal(err)
	}
	if want := int64(level+1+len(rP.Moduli)) * int64(tc.params.N()) * 8; memo.Stats().Bytes != want {
		t.Fatalf("one Q∪P entry charged %d bytes, want %d", memo.Stats().Bytes, want)
	}
}

func TestPlaintextMemo(t *testing.T) {
	tc := newTestContext(t, nil)
	level := 1
	size := int64(level+1) * int64(tc.params.N()) * 8
	encodeCalls := atomic.Int64{}
	encode := func(v float64) func() (*Plaintext, error) {
		return func() (*Plaintext, error) {
			encodeCalls.Add(1)
			return tc.enc.EncodeReal([]float64{v}, level, tc.params.DefaultScale())
		}
	}
	key := func(c int) PlaintextKey { return PlaintextKey{Const: c, Level: level, Scale: tc.params.DefaultScale()} }

	// Fill-once under contention: one encode however many ask at once, and
	// everybody gets the same plaintext.
	memo := NewPlaintextMemo(tc.params, 2*size)
	const askers = 16
	got := make([]*Plaintext, askers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt, _, err := memo.Get(key(0), encode(1))
			if err != nil {
				t.Error(err)
			}
			got[i] = pt
		}(i)
	}
	wg.Wait()
	if encodeCalls.Load() != 1 {
		t.Fatalf("%d goroutines asking for one key encoded it %d times", askers, encodeCalls.Load())
	}
	for _, pt := range got {
		if pt != got[0] {
			t.Fatal("askers of one key received different plaintexts")
		}
	}
	if st := memo.Stats(); st.Entries != 1 || st.Bytes != size || st.Misses != 1 || st.Hits != askers-1 {
		t.Fatalf("stats after the contended fill: %+v", st)
	}

	// The same constant at another scale is another entry.
	if _, hit, _ := memo.Get(PlaintextKey{Const: 0, Level: level, Scale: 2}, encode(1)); hit {
		t.Fatal("a different scale hit the entry of the first")
	}
	// The budget is now spent: a third key is encoded on every Get and
	// never stored, while the stored ones keep hitting.
	for i := 0; i < 3; i++ {
		before := encodeCalls.Load()
		pt, hit, err := memo.Get(key(7), encode(7))
		if err != nil || hit || pt == nil || encodeCalls.Load() != before+1 {
			t.Fatalf("over-cap Get %d: hit=%v err=%v encodes=%d", i, hit, err, encodeCalls.Load()-before)
		}
	}
	if _, hit, _ := memo.Get(key(0), encode(1)); !hit {
		t.Fatal("stored entry stopped hitting once the budget was spent")
	}
	if st := memo.Stats(); st.Entries != 2 || st.Bytes != 2*size {
		t.Fatalf("stats with the budget spent: %+v", st)
	}

	// An encode error is the entry's answer from then on.
	boom := errors.New("boom")
	failing := NewPlaintextMemo(tc.params, size)
	for i := 0; i < 2; i++ {
		if _, _, err := failing.Get(key(1), func() (*Plaintext, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("Get %d of a failing encode returned %v", i, err)
		}
	}

	// No memo at all encodes every time.
	var none *PlaintextMemo
	before := encodeCalls.Load()
	for i := 0; i < 2; i++ {
		if _, hit, err := none.Get(key(0), encode(1)); hit || err != nil {
			t.Fatalf("nil memo: hit=%v err=%v", hit, err)
		}
	}
	if encodeCalls.Load() != before+2 {
		t.Fatal("nil memo did not encode on every Get")
	}

	// Plaintexts belong to a ring, not to a key set.
	if !memo.Fits(tc.params) {
		t.Fatal("memo does not fit the parameters it was made for")
	}
	lit := tc.params.Literal()
	lit.LogN++
	other, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Fits(other) {
		t.Fatal("memo claims to fit a ring of another degree")
	}
}

// TestLinearTransformMemo: a transform with a memo encodes each diagonal
// once per (level, scale) and evaluates to the same ciphertext as one
// without.
func TestLinearTransformMemo(t *testing.T) {
	slots := 128
	m := make([][]complex128, slots)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := range m {
		m[i] = make([]complex128, slots)
		for _, j := range []int{i, (i + 1) % slots, (i + 5) % slots, (i + 17) % slots} {
			m[i][j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	plain := NewLinearTransformFromMatrix(m)
	memoised := NewLinearTransformFromMatrix(m)
	tc := newTestContext(t, plain.Rotations())
	memoised.Memo = NewPlaintextMemoQP(tc.params, PlaintextMemoCap)

	pt, err := tc.enc.Encode(randomComplexVector(slots, 1, 4), tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encSk.Encrypt(pt)
	want, err := tc.eval.EvaluateLinearTransform(ct, plain, tc.enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := tc.eval.EvaluateLinearTransform(ct, memoised, tc.enc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Value[0].Equal(want.Value[0]) || !got.Value[1].Equal(want.Value[1]) || got.Scale != want.Scale {
			t.Fatalf("evaluation %d through the memo differs from the memo-less one", rep)
		}
	}
	st := memoised.Memo.Stats()
	if st.Entries != len(plain.Diags) || st.Misses != uint64(st.Entries) || st.Hits != uint64(st.Entries) {
		t.Fatalf("two evaluations of %d diagonals left the memo at %+v", len(plain.Diags), st)
	}
	// One level down is a different set of encodings.
	low := ct.CopyNew()
	if err := tc.eval.DropLevel(low, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.eval.EvaluateLinearTransform(low, memoised, tc.enc, 0); err != nil {
		t.Fatal(err)
	}
	if st := memoised.Memo.Stats(); st.Entries != 2*len(plain.Diags) {
		t.Fatalf("a second level left %d entries, want %d", st.Entries, 2*len(plain.Diags))
	}
}
