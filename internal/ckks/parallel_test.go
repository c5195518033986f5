package ckks

import (
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/par"
	"antace/internal/poly"
	"antace/internal/ring"
)

func runWithWorkers(n int, fn func()) {
	prev := par.Workers()
	par.SetWorkers(n)
	defer par.SetWorkers(prev)
	fn()
}

// equalCiphertexts reports bit-identical polynomial coefficients.
func equalCiphertexts(a, b *Ciphertext) bool {
	if len(a.Value) != len(b.Value) || a.Scale != b.Scale {
		return false
	}
	for i := range a.Value {
		if !a.Value[i].Equal(b.Value[i]) {
			return false
		}
	}
	return true
}

// TestParallelMatchesSerial fixes the input ciphertext bytes (keygen and
// encryption happen once, outside the measured ops) and asserts each
// evaluator operation yields bit-identical ciphertexts under 1, 2 and 8
// workers. par.SetMinWork(1) runs first so the rings built by
// newTestContext capture a grain that parallelises even at LogN 8.
func TestParallelMatchesSerial(t *testing.T) {
	par.SetMinWork(1)
	defer par.SetMinWork(0)

	tc := newTestContext(t, []int{1, 2, 3, 4, 8, 120})
	level := tc.params.MaxLevel()
	scale := tc.params.DefaultScale()

	va := randomComplexVector(tc.params.Slots(), 1, 101)
	vb := randomComplexVector(tc.params.Slots(), 1, 202)
	pa, err := tc.enc.Encode(va, level, scale)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := tc.enc.Encode(vb, level, scale)
	if err != nil {
		t.Fatal(err)
	}
	cta := tc.encSk.Encrypt(pa)
	ctb := tc.encSk.Encrypt(pb)

	// A DFT stage's shape, diagonals on a stride of 4 either side of zero:
	// four of them split into babies {0, 4} and giant groups {0, 120}.
	lt := NewLinearTransformFromMatrix(diagonalMatrix(tc.params.Slots(), []int{0, 4, 120, 124}, rand.New(rand.NewPCG(5, 5))))

	chebPlan := poly.NewPlan(poly.ChebyshevInterpolate(math.Sin, -1, 1, 7))

	cases := []struct {
		name string
		run  func() *Ciphertext
	}{
		{"Encode", func() *Ciphertext {
			pt, err := tc.enc.Encode(va, level, scale)
			if err != nil {
				t.Fatal(err)
			}
			return &Ciphertext{Value: []*ring.Poly{pt.Value}, Scale: pt.Scale}
		}},
		{"MulRelin", func() *Ciphertext {
			out, err := tc.eval.MulRelin(cta.CopyNew(), ctb.CopyNew())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"Rescale", func() *Ciphertext {
			prod, err := tc.eval.Mul(cta.CopyNew(), ctb.CopyNew())
			if err != nil {
				t.Fatal(err)
			}
			out, err := tc.eval.Rescale(prod)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"Rotate", func() *Ciphertext {
			out, err := tc.eval.Rotate(cta.CopyNew(), 2)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"Conjugate", func() *Ciphertext {
			out, err := tc.eval.Conjugate(cta.CopyNew())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"RotateHoisted", func() *Ciphertext {
			outs, err := tc.eval.RotateHoisted(cta.CopyNew(), []int{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			// Fold the rotations into one ciphertext so a single compare
			// covers every hoisted output.
			acc := outs[1]
			for _, k := range []int{2, 3} {
				if acc, err = tc.eval.Add(acc, outs[k]); err != nil {
					t.Fatal(err)
				}
			}
			return acc
		}},
		{"LinearTransform", func() *Ciphertext {
			out, err := tc.eval.EvaluateLinearTransform(cta.CopyNew(), lt, tc.enc, 0)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"Polynomial", func() *Ciphertext {
			// Depth 3: every level of the chain, through products, lazy
			// relinearisation and the level views of the power basis.
			out, err := tc.eval.EvaluatePolynomial(cta.CopyNew(), chebPlan, scale)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"MulByConst", func() *Ciphertext {
			return tc.eval.MulByConst(cta.CopyNew(), 1.5, scale)
		}},
		{"AddConst", func() *Ciphertext {
			return tc.eval.AddConst(cta.CopyNew(), 0.25)
		}},
		{"ModRaise", func() *Ciphertext {
			low := cta.CopyNew()
			tc.eval.DropLevel(low, low.Level())
			return tc.eval.ModRaise(low, level)
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var serial *Ciphertext
			runWithWorkers(1, func() { serial = c.run() })
			for _, workers := range []int{2, 8} {
				var parallel *Ciphertext
				runWithWorkers(workers, func() { parallel = c.run() })
				if !equalCiphertexts(serial, parallel) {
					t.Fatalf("ciphertexts differ between 1 and %d workers", workers)
				}
			}
		})
	}
}
