package ckks

import (
	"math/rand/v2"
	"testing"
)

// NewLinearTransformFromMatrix converts a dense row-major matrix into
// diagonal form, dropping all-zero diagonals. Only tests hold dense
// matrices.
func NewLinearTransformFromMatrix(m [][]complex128) *LinearTransform {
	n := len(m)
	lt := &LinearTransform{Slots: n, Diags: map[int][]complex128{}}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		zero := true
		for i := 0; i < n; i++ {
			diag[i] = m[i][(i+d)%n]
			if diag[i] != 0 {
				zero = false
			}
		}
		if !zero {
			lt.Diags[d] = diag
		}
	}
	return lt
}

// diagonalMatrix returns a slots x slots matrix whose non-zero entries
// sit on the given diagonals (M[i][(i+d) mod slots]), drawn from rng.
func diagonalMatrix(slots int, diags []int, rng *rand.Rand) [][]complex128 {
	m := make([][]complex128, slots)
	for i := range m {
		m[i] = make([]complex128, slots)
		for _, d := range diags {
			m[i][(i+d)%slots] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	return m
}

// plainLinearTransform is the textbook evaluation the fused kernel is
// checked against: one full rotation, one plaintext product and one
// addition per diagonal, no baby-step/giant-step split, no hoisting.
func plainLinearTransform(t *testing.T, tc *testContext, ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	t.Helper()
	level := ct.Level()
	ptScale := float64(tc.params.RingQ().Moduli[level])
	var acc *Ciphertext
	for d, diag := range lt.Diags {
		rot, err := tc.eval.Rotate(ct, d)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := tc.enc.Encode(diag, level, ptScale)
		if err != nil {
			t.Fatal(err)
		}
		term := tc.eval.MulPlain(rot, pt)
		if acc == nil {
			acc = term
			continue
		}
		if acc, err = tc.eval.Add(acc, term); err != nil {
			t.Fatal(err)
		}
	}
	out, err := tc.eval.Rescale(acc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHoistedVsPlainLinearTransform evaluates one matrix (every diagonal
// populated) and one DFT stage (strided diagonals, on both sides of zero)
// through the fused kernel and through plain rotations, and holds both to
// the cleartext product.
func TestHoistedVsPlainLinearTransform(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	m := make([][]complex128, slots)
	for i := range m {
		m[i] = make([]complex128, slots)
		for j := range m[i] {
			if (i+j)%7 == 0 {
				m[i][j] = complex(float64(i-j)/float64(slots), 0.25)
			}
		}
	}
	stages, err := tc.enc.DFTStages(false, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, lt := range map[string]*LinearTransform{"dense": NewLinearTransformFromMatrix(m), "dft-stage": stages[1]} {
		t.Run(name, func(t *testing.T) { hoistedVsPlain(t, tc, lt) })
	}
}

func hoistedVsPlain(t *testing.T, tc *testContext, lt *LinearTransform) {
	slots := tc.params.Slots()
	all := lt.Rotations() // the plain evaluation rotates by every diagonal
	for d := range lt.Diags {
		all = append(all, d)
	}
	tc.eval.keys.Galois = tc.kg.GenGaloisKeys(all, false, tc.sk)

	values := randomComplexVector(slots, 1, 321)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	want := lt.MulVec(values)

	fused, err := tc.eval.EvaluateLinearTransform(ct, lt, tc.enc, tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(fused), slots), want); e > 1e-3 {
		t.Errorf("fused: max error %.3e", e)
	}
	plain := plainLinearTransform(t, tc, ct, lt)
	if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(plain), slots), want); e > 1e-3 {
		t.Errorf("plain: max error %.3e", e)
	}
}

// TestLinearTransformShapes covers the group shapes the fused kernel
// branches on: dense, sparse, with and without the g = 0 group (whose
// sum needs no key switch), with and without any giant rotation, and a
// lone diagonal.
func TestLinearTransformShapes(t *testing.T) {
	const slots = 128
	every := func(step int) []int {
		var ds []int
		for d := 0; d < slots; d += step {
			ds = append(ds, d)
		}
		return ds
	}
	band := func(n int) []int { // diagonals 0 … n−1
		ds := make([]int, n)
		for i := range ds {
			ds[i] = i
		}
		return ds
	}
	cases := []struct {
		name  string
		diags []int
		keys  int // rotation keys the split must come to; 0: unchecked
	}{
		{"dense", every(1), 0},
		{"every-7th", every(7), 0},
		{"dense-n1-4", band(16), 6}, // baby steps 1, 2, 3; giant steps 4, 8, 12
		{"no-zero-group", []int{20, 21, 23, 37, 38}, 0},
		{"zero-group-only", []int{0, 1}, 1},
		{"identity-diagonal", []int{0}, 0},
		{"one-diagonal", []int{5}, 0},
		{"one-giant-diagonal", []int{8}, 1},
		// Diagonals on multiples of a stride, on both sides of zero, as a
		// DFT stage has them: the baby steps are multiples of the stride
		// too (8, 16, 24 and the one giant step 96; 16, 32 and 48, 96).
		{"stride-8", []int{0, 8, 16, 24, 104, 112, 120}, 4},
		{"stride-16-wrapped", every(16), 4},
		{"stride-4-no-zero-group", []int{4, 12, 100, 124}, 0},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(i), 77))
			lt := NewLinearTransformFromMatrix(diagonalMatrix(slots, c.diags, rng))
			if c.keys != 0 && len(lt.Rotations()) != c.keys {
				t.Errorf("rotations %v, want %d of them: baby steps must follow the stride", lt.Rotations(), c.keys)
			}
			tc := newTestContext(t, lt.Rotations())
			values := randomComplexVector(slots, 1, uint64(40+i))
			pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			out, err := tc.eval.EvaluateLinearTransform(tc.encSk.Encrypt(pt), lt, tc.enc, 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.Level() != tc.params.MaxLevel()-1 || out.Scale != tc.params.DefaultScale() {
				t.Fatalf("output at level %d scale %g", out.Level(), out.Scale)
			}
			got := tc.enc.Decode(tc.dec.Decrypt(out), slots)
			if e := maxErr(got, lt.MulVec(values)); e > 1e-3 {
				t.Errorf("max error %.3e", e)
			}
		})
	}
	tc := newTestContext(t, nil)
	pt, _ := tc.enc.Encode(randomComplexVector(slots, 1, 1), tc.params.MaxLevel(), tc.params.DefaultScale())
	empty := &LinearTransform{Slots: slots, Diags: map[int][]complex128{}}
	if _, err := tc.eval.EvaluateLinearTransform(tc.encSk.Encrypt(pt), empty, tc.enc, 0); err == nil {
		t.Error("a transform without diagonals must be rejected")
	}
}
