package ring

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"antace/internal/nt"
)

// Width sweeps for the straight-line kernels: every digit count and
// conversion width is its own code path (fused.go dispatches on it), so
// each is held to the unfused reference separately, across the batch
// boundary and past two full batches.

// TestInnerProductWidthSweep checks the plain, accumulating and permuted
// inner products at every digit count from 0 to 2·fusedDigitBatch+1
// against a zeroed accumulator driven by MulCoeffsThenAdd.
func TestInnerProductWidthSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for _, r := range lazyTestRings(t, 5) {
		level := r.MaxLevel()
		idx := r.AutomorphismNTTIndex(r.GaloisElementForRotation(5))
		for D := 0; D <= 2*fusedDigitBatch+1; D++ {
			as := make([]*Poly, D)
			bs := make([]*Poly, D)
			perm := make([]*Poly, D)
			for d := 0; d < D; d++ {
				as[d] = randomPolyRNG(r, rng, level)
				bs[d] = randomPolyRNG(r, rng, level)
				perm[d] = r.NewPoly(level)
				r.AutomorphismNTT(as[d], idx, perm[d])
			}
			start := randomPolyRNG(r, rng, level)
			reference := func(xs []*Poly, acc bool) *Poly {
				ref := r.NewPoly(level)
				if acc {
					start.Copy(ref)
				}
				for d := range xs {
					r.MulCoeffsThenAdd(xs[d], bs[d], ref)
				}
				return ref
			}
			for _, acc := range []bool{false, true} {
				what := fmt.Sprintf("q=%d D=%d acc=%v", r.Moduli[0], D, acc)
				got := start.CopyNew()
				r.innerProduct(as, nil, bs, got, acc)
				assertReduced(t, r, got, what)
				if !got.Equal(reference(as, acc)) {
					t.Fatalf("%s: inner product differs from MulCoeffsThenAdd", what)
				}
				got = start.CopyNew()
				r.InnerProductPermuted(as, idx, bs, got, acc)
				assertReduced(t, r, got, what+" permuted")
				if !got.Equal(reference(perm, acc)) {
					t.Fatalf("%s: permuted inner product differs from AutomorphismNTT+MulCoeffsThenAdd", what)
				}
			}
		}
	}
}

// TestConvertRowWidthSweep checks the base-conversion row kernel at every
// width from 1 to 2·fusedDigitBatch+1 against MulMod/Add sums, with
// operands at and below the 2^62 edge.
func TestConvertRowWidthSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	for _, logQ := range []uint64{30, 45, 61} {
		r, _, _ := fusedTestQP(t, 5, logQ, 1, 1)
		m := r.Mods[0]
		q := m.Q
		for D := 1; D <= 2*fusedDigitBatch+1; D++ {
			ys := make([][]uint64, D)
			over := make([]uint64, D)
			for i := range ys {
				ys[i] = make([]uint64, r.N)
				for k := range ys[i] {
					ys[i][k] = rng.Uint64() % q
				}
				over[i] = rng.Uint64() % q
			}
			// Worst-case operands in the last row: every product maximal.
			for k := range ys[D-1] {
				ys[D-1][k] = q - 1
			}
			over[D-1] = q - 1
			dst := make([]uint64, r.N)
			for k := range dst {
				dst[k] = q - 1 // dirty: the kernel must overwrite it
			}
			hi, lo := r.getScratch(D)
			r.convertRow(ys, m, over, dst, *hi, *lo)
			r.putScratch(hi, lo)
			for k := range dst {
				var want uint64
				for i := range ys {
					want = nt.Add(want, nt.MulMod(ys[i][k], over[i], m), q)
				}
				if dst[k] != want {
					t.Fatalf("q=%d D=%d coeff %d: got %d, want %d", q, D, k, dst[k], want)
				}
			}
		}
	}
}

// TestNTTSmallRings checks the transforms at every ring degree from 2 to
// 2^11 — the smallest have no t = 4 or t = 2 stage — against the eager
// butterflies, by round trip, and as a negacyclic convolution against
// MulPolyNaive.
func TestNTTSmallRings(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 61))
	for logN := 1; logN <= 11; logN++ {
		for _, r := range lazyTestRings(t, logN) {
			what := fmt.Sprintf("logN=%d q=%d", logN, r.Moduli[0])
			level := r.MaxLevel()
			p1 := randomPolyRNG(r, rng, level)
			p2 := randomPolyRNG(r, rng, level)

			f1, eager := p1.CopyNew(), p1.CopyNew()
			r.NTT(f1, f1)
			for i := range eager.Coeffs {
				eagerNTTRow(r, eager.Coeffs[i], i)
			}
			assertReduced(t, r, f1, what+" NTT")
			if !f1.Equal(eager) {
				t.Fatalf("%s: NTT differs from eager reference", what)
			}
			back := f1.CopyNew()
			r.INTT(back, back)
			for i := range eager.Coeffs {
				eagerINTTRow(r, eager.Coeffs[i], i)
			}
			assertReduced(t, r, back, what+" INTT")
			if !back.Equal(eager) || !back.Equal(p1) {
				t.Fatalf("%s: INTT differs from eager reference or round trip", what)
			}

			if logN > 8 {
				continue // MulPolyNaive is quadratic
			}
			f2 := p2.CopyNew()
			r.NTT(f2, f2)
			prod := r.NewPoly(level)
			r.MulCoeffs(f1, f2, prod)
			r.INTT(prod, prod)
			naive := r.NewPoly(level)
			r.MulPolyNaive(p1, p2, naive)
			if !prod.Equal(naive) {
				t.Fatalf("%s: NTT product differs from MulPolyNaive", what)
			}
		}
	}
}

// kernelGeometries are the ring shapes the benchmark's inference
// workloads compile to: ResNet-8 (logN 9, 27 Q + 6 P primes) and the
// gemv (logN 10, 2 + 2).
var kernelGeometries = []struct {
	name       string
	logN, q, p int
}{
	{"resnet8", 9, 27, 6},
	{"gemv", 10, 2, 2},
}

// BenchmarkInnerProduct times one key-switch key product at the top
// level of each geometry, ⌈L/K⌉ digits, and the width sweep behind the
// kernel's fixed-width bodies at the ResNet-8 geometry.
func BenchmarkInnerProduct(b *testing.B) {
	for _, g := range kernelGeometries {
		rQ, _, _ := fusedTestQP(b, g.logN, 50, g.q, g.p)
		widths := []int{(g.q + g.p - 1) / g.p}
		if g.name == "resnet8" {
			widths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		}
		for _, D := range widths {
			as := make([]*Poly, D)
			bs := make([]*Poly, D)
			for d := range as {
				as[d] = randomPoly(rQ, rQ.MaxLevel(), uint64(2*d+1))
				bs[d] = randomPoly(rQ, rQ.MaxLevel(), uint64(2*d+2))
			}
			out := rQ.NewPoly(rQ.MaxLevel())
			b.Run(fmt.Sprintf("%s/D%d", g.name, D), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rQ.InnerProduct(as, bs, out)
				}
			})
		}
	}
}

// BenchmarkDecompModUpNTT times the full digit decomposition of one
// top-level polynomial: every K-prime digit lifted to Q∪P and
// transformed.
func BenchmarkDecompModUpNTT(b *testing.B) {
	for _, g := range kernelGeometries {
		rQ, rP, be := fusedTestQP(b, g.logN, 50, g.q, g.p)
		level := rQ.MaxLevel()
		p := randomPoly(rQ, level, 1)
		pNTT := rQ.NewPoly(level)
		rQ.NTT(p, pNTT)
		outQ, outP := rQ.NewPoly(level), rP.NewPoly(rP.MaxLevel())
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s <= level; s += g.p {
					be.DecompModUpNTT(p, pNTT, s, min(s+g.p, level+1), level, outQ, outP)
				}
			}
		})
	}
}

// BenchmarkModDownNTT times one NTT-domain division by P at the top
// level.
func BenchmarkModDownNTT(b *testing.B) {
	for _, g := range kernelGeometries {
		rQ, rP, be := fusedTestQP(b, g.logN, 50, g.q, g.p)
		pQ := randomPoly(rQ, rQ.MaxLevel(), 1)
		pP := randomPoly(rP, rP.MaxLevel(), 2)
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be.ModDownNTT(pQ, pP)
			}
		})
	}
}
