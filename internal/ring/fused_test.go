package ring

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"antace/internal/nt"
	"antace/internal/par"
)

// lazyTestRings returns rings spanning the supported modulus range,
// including primes just under the 2^62 bound where the lazy invariants
// (values held in [0,4q) between butterfly stages) have the least
// headroom.
func lazyTestRings(t testing.TB, logN int) []*Ring {
	t.Helper()
	n := 1 << logN
	var rings []*Ring
	for _, logQ := range []uint64{30, 45, 61} {
		primes, err := nt.GenerateNTTPrimes(logQ, uint64(2*n), 3)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes(%d): %v", logQ, err)
		}
		r, err := NewRing(n, primes)
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, r)
	}
	return rings
}

// eagerNTTRow is a strict textbook Cooley–Tukey negacyclic transform over
// the same twiddle tables as nttRow, with every butterfly fully reduced.
// It is the reference the lazy kernel must match bit for bit.
func eagerNTTRow(r *Ring, a []uint64, row int) {
	n := r.N
	m := r.Mods[row]
	q := r.Moduli[row]
	tab := &r.tables[row]
	t := n
	for mm := 1; mm < n; mm <<= 1 {
		t >>= 1
		for i := 0; i < mm; i++ {
			w := tab.psiRev[mm+i]
			j1 := 2 * i * t
			for j := j1; j < j1+t; j++ {
				u := a[j]
				v := nt.MulMod(a[j+t], w, m)
				a[j] = nt.Add(u, v, q)
				a[j+t] = nt.Sub(u, v, q)
			}
		}
	}
}

// eagerINTTRow is the strict Gentleman–Sande inverse, fully reduced at
// every step.
func eagerINTTRow(r *Ring, a []uint64, row int) {
	n := r.N
	m := r.Mods[row]
	q := r.Moduli[row]
	tab := &r.tables[row]
	t := 1
	for mm := n; mm > 1; mm >>= 1 {
		h := mm >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w := tab.psiInvRev[h+i]
			for j := j1; j < j1+t; j++ {
				u := a[j]
				v := a[j+t]
				a[j] = nt.Add(u, v, q)
				a[j+t] = nt.MulMod(nt.Sub(u, v, q), w, m)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := range a {
		a[j] = nt.MulMod(a[j], tab.nInv, m)
	}
}

func randomPolyRNG(r *Ring, rng *rand.Rand, level int) *Poly {
	p := r.NewPoly(level)
	for i := range p.Coeffs {
		q := r.Moduli[i]
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % q
		}
	}
	return p
}

func assertReduced(t *testing.T, r *Ring, p *Poly, what string) {
	t.Helper()
	for i := range p.Coeffs {
		q := r.Moduli[i]
		for j, c := range p.Coeffs[i] {
			if c >= q {
				t.Fatalf("%s: row %d coeff %d = %d >= q = %d (not fully reduced)", what, i, j, c, q)
			}
		}
	}
}

// TestLazyNTTBitIdenticalToEager checks that the lazy-reduction forward
// and inverse transforms produce outputs that are (a) fully reduced and
// (b) bit-identical to strict eager butterflies, across random rows and
// moduli up to the 2^62 edge.
func TestLazyNTTBitIdenticalToEager(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	for _, r := range lazyTestRings(t, 8) {
		for trial := 0; trial < 8; trial++ {
			p := randomPolyRNG(r, rng, r.MaxLevel())
			lazy := p.CopyNew()
			eager := p.CopyNew()
			r.NTT(lazy, lazy)
			for i := range eager.Coeffs {
				eagerNTTRow(r, eager.Coeffs[i], i)
			}
			assertReduced(t, r, lazy, fmt.Sprintf("q=%d lazy NTT", r.Moduli[0]))
			if !lazy.Equal(eager) {
				t.Fatalf("q=%d: lazy NTT differs from eager reference", r.Moduli[0])
			}

			r.INTT(lazy, lazy)
			for i := range eager.Coeffs {
				eagerINTTRow(r, eager.Coeffs[i], i)
			}
			assertReduced(t, r, lazy, fmt.Sprintf("q=%d lazy INTT", r.Moduli[0]))
			if !lazy.Equal(eager) {
				t.Fatalf("q=%d: lazy INTT differs from eager reference", r.Moduli[0])
			}
			if !lazy.Equal(p) {
				t.Fatalf("q=%d: NTT/INTT round trip not the identity", r.Moduli[0])
			}
		}
	}
}

// TestLazyNTTExtremeInputs drives the transforms with coefficient
// patterns at the reduction boundaries (all q-1, alternating 0 and q-1),
// where a missed fold would first show.
func TestLazyNTTExtremeInputs(t *testing.T) {
	for _, r := range lazyTestRings(t, 8) {
		p := r.NewPoly(r.MaxLevel())
		for i := range p.Coeffs {
			q := r.Moduli[i]
			for j := range p.Coeffs[i] {
				if j%2 == 0 {
					p.Coeffs[i][j] = q - 1
				}
			}
		}
		lazy := p.CopyNew()
		eager := p.CopyNew()
		r.NTT(lazy, lazy)
		for i := range eager.Coeffs {
			eagerNTTRow(r, eager.Coeffs[i], i)
		}
		assertReduced(t, r, lazy, "extreme NTT")
		if !lazy.Equal(eager) {
			t.Fatalf("q=%d: lazy NTT differs on extreme inputs", r.Moduli[0])
		}
		r.INTT(lazy, lazy)
		assertReduced(t, r, lazy, "extreme INTT")
		if !lazy.Equal(p) {
			t.Fatalf("q=%d: round trip lost extreme inputs", r.Moduli[0])
		}
	}
}

// fusedTestQP builds a Q/P ring pair for fused-kernel differential tests.
func fusedTestQP(t testing.TB, logN int, logQ uint64, qCount, pCount int) (*Ring, *Ring, *BasisExtender) {
	t.Helper()
	n := 1 << logN
	qPrimes, err := nt.GenerateNTTPrimes(logQ, uint64(2*n), qCount)
	if err != nil {
		t.Fatal(err)
	}
	pPrimes, err := nt.GenerateNTTPrimes(logQ, uint64(2*n), pCount, qPrimes...)
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
	return rQ, rP, NewBasisExtender(rQ, rP)
}

// TestDecompModUpNTTMatchesUnfused checks the fused digit lift against
// the primitive sequence it replaces — ModUpDigitQP followed by forward
// NTTs — bit for bit, over several digit spans and moduli including the
// 2^62 edge. The digit's own rows come from the NTT-domain source the
// caller already holds, and must equal the re-transformed ones.
func TestDecompModUpNTTMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, logQ := range []uint64{40, 61} {
		rQ, rP, be := fusedTestQP(t, 6, logQ, 5, 2)
		level := rQ.MaxLevel()
		for _, span := range [][2]int{{0, 1}, {1, 3}, {0, 4}, {2, 5}} {
			pQ := randomPolyRNG(rQ, rng, level)
			pQNTT := rQ.NewPoly(level)
			rQ.NTT(pQ, pQNTT)
			fusedQ := rQ.NewPoly(level)
			fusedP := rP.NewPoly(rP.MaxLevel())
			be.DecompModUpNTT(pQ, pQNTT, span[0], span[1], level, fusedQ, fusedP)

			refQ := rQ.NewPoly(level)
			refP := rP.NewPoly(rP.MaxLevel())
			be.ModUpDigitQP(pQ, span[0], span[1], level, refQ, refP)
			rQ.NTT(refQ, refQ)
			rP.NTT(refP, refP)

			what := fmt.Sprintf("logQ=%d span=%v", logQ, span)
			assertReduced(t, rQ, fusedQ, what+" Q")
			assertReduced(t, rP, fusedP, what+" P")
			if !fusedQ.Equal(refQ) || !fusedP.Equal(refP) {
				t.Fatalf("%s: fused DecompModUpNTT differs from ModUpDigitQP+NTT", what)
			}
		}
	}
}

// TestInnerProductMatchesUnfused checks the 128-bit lazy inner product
// against a zeroed accumulator driven by MulCoeffsThenAdd, across digit
// counts straddling the fusedDigitBatch boundary.
func TestInnerProductMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	for _, r := range lazyTestRings(t, 7) {
		for _, D := range []int{1, 2, fusedDigitBatch, fusedDigitBatch + 1, 2*fusedDigitBatch + 3} {
			as := make([]*Poly, D)
			bs := make([]*Poly, D)
			for d := 0; d < D; d++ {
				as[d] = randomPolyRNG(r, rng, r.MaxLevel())
				bs[d] = randomPolyRNG(r, rng, r.MaxLevel())
			}
			fused := r.GetPolyNoZero(r.MaxLevel())
			r.InnerProduct(as, bs, fused)

			ref := r.NewPoly(r.MaxLevel())
			for d := 0; d < D; d++ {
				r.MulCoeffsThenAdd(as[d], bs[d], ref)
			}
			what := fmt.Sprintf("q=%d D=%d", r.Moduli[0], D)
			assertReduced(t, r, fused, what)
			if !fused.Equal(ref) {
				t.Fatalf("%s: fused InnerProduct differs from MulCoeffsThenAdd loop", what)
			}
			// The accumulating form continues the same sum.
			r.InnerProductAdd(as, bs, fused)
			for d := 0; d < D; d++ {
				r.MulCoeffsThenAdd(as[d], bs[d], ref)
			}
			assertReduced(t, r, fused, what+" add")
			if !fused.Equal(ref) {
				t.Fatalf("%s: InnerProductAdd differs from MulCoeffsThenAdd loop", what)
			}
			// Read through an automorphism, it is the plain product of
			// the permuted digits, fresh and accumulating.
			idx := r.AutomorphismNTTIndex(r.GaloisElementForRotation(3))
			perm := make([]*Poly, D)
			for d := range as {
				perm[d] = r.NewPoly(r.MaxLevel())
				r.AutomorphismNTT(as[d], idx, perm[d])
			}
			r.InnerProductPermuted(as, idx, bs, fused, false)
			r.InnerProduct(perm, bs, ref)
			if !fused.Equal(ref) {
				t.Fatalf("%s: InnerProductPermuted differs from AutomorphismNTT+InnerProduct", what)
			}
			r.InnerProductPermuted(as, idx, bs, fused, true)
			r.InnerProductAdd(perm, bs, ref)
			if !fused.Equal(ref) {
				t.Fatalf("%s: accumulating InnerProductPermuted differs from AutomorphismNTT+InnerProductAdd", what)
			}
			r.PutPoly(fused)
		}
		// An empty digit list must zero the (pooled, dirty) output.
		dirty := r.GetPolyNoZero(r.MaxLevel())
		for i := range dirty.Coeffs {
			for j := range dirty.Coeffs[i] {
				dirty.Coeffs[i][j] = r.Moduli[i] - 1
			}
		}
		r.InnerProduct(nil, nil, dirty)
		if !dirty.Equal(r.NewPoly(r.MaxLevel())) {
			t.Fatal("InnerProduct with no digits must zero the output")
		}
		kept := randomPolyRNG(r, rng, r.MaxLevel())
		same := kept.CopyNew()
		r.InnerProductAdd(nil, nil, same)
		if !same.Equal(kept) {
			t.Fatal("InnerProductAdd with no digits must leave the output alone")
		}
		r.PutPoly(dirty)
	}
}

// TestModDownNTTMatchesUnfused checks the fused NTT-domain ModDown
// against the primitive sequence it replaces: INTT both bases, ModDownQP
// in coefficient domain, NTT back. It runs at every level of the chain
// for K = 2, 6 and 9 special primes; 9 is more base-conversion terms
// than one unreduced accumulator batch holds (fusedDigitBatch).
func TestModDownNTTMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 17))
	for _, K := range []int{2, 6, 9} {
		for _, logQ := range []uint64{40, 61} {
			rQ, rP, be := fusedTestQP(t, 6, logQ, 4, K)
			for level := 0; level <= rQ.MaxLevel(); level++ {
				pQ := randomPolyRNG(rQ, rng, level)
				pP := randomPolyRNG(rP, rng, rP.MaxLevel())

				fusedQ := pQ.CopyNew()
				fusedP := pP.CopyNew()
				be.ModDownNTT(fusedQ, fusedP)

				refQ := pQ.CopyNew()
				refP := pP.CopyNew()
				rQ.INTT(refQ, refQ)
				rP.INTT(refP, refP)
				be.ModDownQP(refQ, refP)
				rQ.NTT(refQ, refQ)

				what := fmt.Sprintf("K=%d logQ=%d level=%d", K, logQ, level)
				assertReduced(t, rQ, fusedQ, what)
				if !fusedQ.Equal(refQ) {
					t.Fatalf("%s: fused ModDownNTT differs from INTT+ModDownQP+NTT", what)
				}
			}
		}
	}
}

// TestNTTSerialZeroAlloc pins the satellite fix for the 32 B/op closure
// escape: with one worker the transforms must not allocate at all.
func TestNTTSerialZeroAlloc(t *testing.T) {
	prev := par.Workers()
	par.SetWorkers(1)
	defer par.SetWorkers(prev)

	r := testRing(t, 10, 3)
	rng := rand.New(rand.NewPCG(19, 29))
	p := randomPolyRNG(r, rng, r.MaxLevel())
	if allocs := testing.AllocsPerRun(16, func() { r.NTT(p, p) }); allocs != 0 {
		t.Fatalf("serial NTT allocates %.1f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(16, func() { r.INTT(p, p) }); allocs != 0 {
		t.Fatalf("serial INTT allocates %.1f objects per run, want 0", allocs)
	}
}

// FuzzLazyNTTRow fuzzes single-row transforms against the eager
// reference: arbitrary seeds expand to a full row via a PCG stream, so
// the fuzzer explores coefficient patterns rather than just lengths.
func FuzzLazyNTTRow(f *testing.F) {
	f.Add(uint64(0), uint64(0), false)
	f.Add(uint64(1), uint64(2), true)
	f.Add(^uint64(0), uint64(7), false)
	f.Fuzz(func(t *testing.T, s1, s2 uint64, inverse bool) {
		for _, r := range lazyTestRings(t, 6) {
			rng := rand.New(rand.NewPCG(s1, s2))
			row := len(r.Moduli) - 1
			q := r.Moduli[row]
			lazy := make([]uint64, r.N)
			eager := make([]uint64, r.N)
			for j := range lazy {
				lazy[j] = rng.Uint64() % q
			}
			copy(eager, lazy)
			if inverse {
				r.inttRow(lazy, row)
				eagerINTTRow(r, eager, row)
			} else {
				r.nttRow(lazy, row)
				eagerNTTRow(r, eager, row)
			}
			for j := range lazy {
				if lazy[j] >= q {
					t.Fatalf("q=%d inverse=%v: coeff %d = %d not reduced", q, inverse, j, lazy[j])
				}
				if lazy[j] != eager[j] {
					t.Fatalf("q=%d inverse=%v: coeff %d: lazy %d != eager %d", q, inverse, j, lazy[j], eager[j])
				}
			}
		}
	})
}
