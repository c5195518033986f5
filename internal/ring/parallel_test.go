package ring

import (
	"testing"

	"antace/internal/nt"
	"antace/internal/par"
)

// runWithWorkers executes fn under the given worker count, restoring the
// previous count afterwards.
func runWithWorkers(n int, fn func()) {
	prev := par.Workers()
	par.SetWorkers(n)
	defer par.SetWorkers(prev)
	fn()
}

// TestParallelMatchesSerial runs every parallelised ring operation under
// 1 and 8 workers and asserts bit-identical outputs. par.SetMinWork(1)
// forces parallel chunking even on the tiny test ring; since rings
// capture their grain at construction, the override precedes testRing.
func TestParallelMatchesSerial(t *testing.T) {
	par.SetMinWork(1)
	defer par.SetMinWork(0)

	n := 1 << 8
	qPrimes, err := nt.GenerateNTTPrimes(45, uint64(2*n), 6)
	if err != nil {
		t.Fatal(err)
	}
	pPrimes, err := nt.GenerateNTTPrimes(46, uint64(2*n), 2, qPrimes...)
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
	level := rQ.MaxLevel()
	a := randomPoly(rQ, level, 11)
	b := randomPoly(rQ, level, 22)
	gal := rQ.GaloisElementForRotation(3)
	idx := rQ.AutomorphismNTTIndex(gal)

	cases := []struct {
		name string
		run  func() []*Poly
	}{
		{"NTT", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.NTT(a, out)
			return []*Poly{out}
		}},
		{"INTT", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.INTT(a, out)
			return []*Poly{out}
		}},
		{"Add", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.Add(a, b, out)
			return []*Poly{out}
		}},
		{"Sub", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.Sub(a, b, out)
			return []*Poly{out}
		}},
		{"MulCoeffs", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.MulCoeffs(a, b, out)
			return []*Poly{out}
		}},
		{"MulCoeffsOnLevelViews", func() []*Poly {
			// Operands that share the rows of deeper polynomials, as the
			// polynomial evaluator passes its power basis.
			av, bv := &Poly{Coeffs: a.Coeffs[:level]}, &Poly{Coeffs: b.Coeffs[:level]}
			out := rQ.NewPoly(level - 1)
			rQ.MulCoeffs(av, bv, out)
			inner := rQ.NewPoly(level - 1)
			rQ.InnerProduct([]*Poly{av, bv}, []*Poly{bv, av}, inner)
			return []*Poly{out, inner}
		}},
		{"MulCoeffsThenAdd", func() []*Poly {
			out := b.CopyNew()
			rQ.MulCoeffsThenAdd(a, b, out)
			return []*Poly{out}
		}},
		{"MulScalar", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.MulScalar(a, 12345, out)
			return []*Poly{out}
		}},
		{"Automorphism", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.Automorphism(a, gal, out)
			return []*Poly{out}
		}},
		{"AutomorphismNTT", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.AutomorphismNTT(a, idx, out)
			return []*Poly{out}
		}},
		{"AutomorphismNTTInPlace", func() []*Poly {
			out := a.CopyNew()
			rQ.AutomorphismNTT(out, idx, out)
			return []*Poly{out}
		}},
		{"Shift", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.Shift(a, 7, out)
			return []*Poly{out}
		}},
		{"MulPolyNaive", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.MulPolyNaive(a, b, out)
			return []*Poly{out}
		}},
		{"DivRoundByLastModulus", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.DivRoundByLastModulus(a, out)
			return []*Poly{out}
		}},
		{"DivRoundByLastModulusNTT", func() []*Poly {
			out := rQ.NewPoly(level)
			rQ.DivRoundByLastModulusNTT(a, out)
			return []*Poly{out}
		}},
		{"ModUpDigitQP", func() []*Poly {
			outQ := rQ.NewPoly(level)
			outP := rP.NewPoly(rP.MaxLevel())
			be.ModUpDigitQP(a, 1, 3, level, outQ, outP)
			return []*Poly{outQ, outP}
		}},
		{"ModDownQP", func() []*Poly {
			outQ := a.CopyNew()
			outP := randomPoly(rP, rP.MaxLevel(), 33)
			be.ModDownQP(outQ, outP)
			return []*Poly{outQ}
		}},
		{"GetPolyZeroed", func() []*Poly {
			p := rQ.GetPoly(level)
			out := p.CopyNew()
			rQ.PutPoly(p)
			return []*Poly{out}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var serial, parallel []*Poly
			runWithWorkers(1, func() { serial = tc.run() })
			runWithWorkers(8, func() { parallel = tc.run() })
			if len(serial) != len(parallel) {
				t.Fatalf("result count mismatch: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				if !serial[i].Equal(parallel[i]) {
					t.Fatalf("output %d differs between 1 and 8 workers", i)
				}
			}
		})
	}
}
