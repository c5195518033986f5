// Package ring implements arithmetic over the cyclotomic rings
// Z_Q[X]/(X^N+1) in RNS (residue number system) representation, the
// computational substrate of the RNS-CKKS scheme: negacyclic NTT, pointwise
// operations, Galois automorphisms, RNS basis conversion, rescaling and
// modulus switching, plus the samplers needed for key generation and
// encryption.
package ring

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"antace/internal/nt"
	"antace/internal/par"
)

// Poly is a polynomial in RNS representation: Coeffs[i][j] is the j-th
// coefficient modulo the ring's i-th prime. A Poly with L+1 rows is said to
// be at level L. Whether the rows are in coefficient or NTT domain is
// tracked by the owner (ciphertexts in this library live in NTT domain).
type Poly struct {
	Coeffs [][]uint64

	// pooled, when non-nil, holds the backing rows of a pool-owned
	// polynomial (see Ring.GetPoly): Coeffs is it, or a truncation of it.
	pooled [][]uint64
}

// Level returns the level of the polynomial (number of rows minus one).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// N returns the ring degree of the polynomial.
func (p *Poly) N() int {
	if len(p.Coeffs) == 0 {
		return 0
	}
	return len(p.Coeffs[0])
}

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	q := &Poly{Coeffs: make([][]uint64, len(p.Coeffs))}
	if len(p.Coeffs) == 0 {
		return q
	}
	n := len(p.Coeffs[0])
	backing := make([]uint64, len(p.Coeffs)*n)
	for i := range p.Coeffs {
		row := backing[i*n : (i+1)*n : (i+1)*n]
		copy(row, p.Coeffs[i])
		q.Coeffs[i] = row
	}
	return q
}

// Copy copies p into q, which must have at least as many rows.
func (p *Poly) Copy(q *Poly) {
	for i := range p.Coeffs {
		copy(q.Coeffs[i], p.Coeffs[i])
	}
}

// Zero clears all coefficients of p.
func (p *Poly) Zero() {
	for i := range p.Coeffs {
		row := p.Coeffs[i]
		for j := range row {
			row[j] = 0
		}
	}
}

// Resize truncates or extends (with zero rows) p to the given level.
func (p *Poly) Resize(level int, n int) {
	for len(p.Coeffs) <= level {
		p.Coeffs = append(p.Coeffs, make([]uint64, n))
	}
	p.Coeffs = p.Coeffs[:level+1]
}

// Equal reports whether p and q have identical coefficients.
func (p *Poly) Equal(q *Poly) bool {
	if len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if len(p.Coeffs[i]) != len(q.Coeffs[i]) {
			return false
		}
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// nttTables holds per-modulus NTT twiddle factors in bit-reversed order,
// with Shoup precomputations for the fast butterfly.
type nttTables struct {
	psiRev         []uint64 // psi^brv(i), psi a primitive 2N-th root
	psiRevShoup    []uint64
	psiInvRev      []uint64 // psi^-brv(i)
	psiInvRevShoup []uint64
	nInv           uint64 // N^-1 mod q
	nInvShoup      uint64
}

// Ring is Z_Q[X]/(X^N+1) for Q the product of a chain of NTT-friendly
// primes. It precomputes NTT tables and the RNS rescaling constants.
//
// All Ring methods are safe for concurrent use: precomputed tables are
// read-only after construction, results go only to caller-provided
// outputs, and internal scratch comes from per-ring pools. Limb loops are
// distributed over the internal/par worker pool; because every limb is an
// independent exact modular computation, parallel results are
// bit-identical to serial ones.
type Ring struct {
	N      int
	LogN   int
	Moduli []uint64
	Mods   []nt.Modulus

	tables []nttTables

	// zero is a read-only row of N zeros, the empty starting sum of the
	// row kernels (rows.go).
	zero []uint64

	// rescaleQlInv[l][i] = q_l^-1 mod q_i (Shoup pair), used by
	// DivRoundByLastModulus at level l for row i < l.
	rescaleQlInv      [][]uint64
	rescaleQlInvShoup [][]uint64

	// grainPW (pointwise, O(N) per limb) and grainNTT (O(N logN) per
	// limb) are the minimum limbs per worker chunk; tiny test rings fall
	// below the threshold and run serially.
	grainPW  int
	grainNTT int

	// The scratch pools live behind atomic pointers so DiscardPools can
	// swap them wholesale after a recovered panic: buffers already
	// returned to the old pool are orphaned instead of recycled
	// (see pool.go).
	bufPool   atomic.Pointer[sync.Pool]   // *[]uint64 scratch rows, length N
	polyPools atomic.Pointer[[]sync.Pool] // [level] *Poly with level+1 rows (see pool.go)
}

// NewRing constructs the ring of degree n (a power of two) with the given
// prime modulus chain. Every modulus must be ≡ 1 mod 2n.
func NewRing(n int, moduli []uint64) (*Ring, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d is not a power of two >= 2", n)
	}
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: empty modulus chain")
	}
	r := &Ring{
		N:        n,
		LogN:     bits.Len(uint(n)) - 1,
		Moduli:   append([]uint64(nil), moduli...),
		grainPW:  par.Grain(n),
		grainNTT: par.Grain(n * (bits.Len(uint(n)) - 1)),
		zero:     make([]uint64, n),
	}
	r.Mods = make([]nt.Modulus, len(moduli))
	r.tables = make([]nttTables, len(moduli))
	for i, q := range moduli {
		if q >= 1<<62 {
			// The lazy NTT keeps coefficients in [0, 4q) and the fused
			// kernels keep 2q-lazy operands; both need 4q < 2^64.
			return nil, fmt.Errorf("ring: modulus %d is not below 2^62", q)
		}
		if q%(2*uint64(n)) != 1 {
			return nil, fmt.Errorf("ring: modulus %d is not ≡ 1 mod 2N", q)
		}
		if !nt.IsPrime(q) {
			return nil, fmt.Errorf("ring: modulus %d is not prime", q)
		}
		r.Mods[i] = nt.NewModulus(q)
		psi, err := nt.RootOfUnity(2*uint64(n), q)
		if err != nil {
			return nil, err
		}
		r.tables[i] = newNTTTables(n, psi, r.Mods[i])
	}
	r.DiscardPools()
	// Rescaling constants.
	L := len(moduli)
	r.rescaleQlInv = make([][]uint64, L)
	r.rescaleQlInvShoup = make([][]uint64, L)
	for l := 1; l < L; l++ {
		r.rescaleQlInv[l] = make([]uint64, l)
		r.rescaleQlInvShoup[l] = make([]uint64, l)
		for i := 0; i < l; i++ {
			inv := nt.ModInverse(moduli[l]%moduli[i], r.Mods[i])
			r.rescaleQlInv[l][i] = inv
			r.rescaleQlInvShoup[l][i] = nt.ShoupPrec(inv, moduli[i])
		}
	}
	return r, nil
}

// NewPoly allocates a zero polynomial at the given level. All rows share
// one contiguous backing array: three heap objects total instead of one
// per limb, and sequential-limb passes walk memory linearly.
func (r *Ring) NewPoly(level int) *Poly {
	if level < 0 || level >= len(r.Moduli) {
		panic(fmt.Sprintf("ring: level %d out of range [0,%d]", level, len(r.Moduli)-1))
	}
	backing := make([]uint64, (level+1)*r.N)
	p := &Poly{Coeffs: make([][]uint64, level+1)}
	for i := range p.Coeffs {
		p.Coeffs[i] = backing[i*r.N : (i+1)*r.N : (i+1)*r.N]
	}
	return p
}

// MaxLevel returns the top level of the modulus chain.
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// minLevel returns the smallest level among the given polynomials.
func minLevel(ps ...*Poly) int {
	l := ps[0].Level()
	for _, p := range ps[1:] {
		if pl := p.Level(); pl < l {
			l = pl
		}
	}
	return l
}

// Add sets p3 = p1 + p2 over the common rows of all three.
func (r *Ring) Add(p1, p2, p3 *Poly) {
	l := minLevel(p1, p2, p3)
	if par.Inline(l+1, r.grainPW) {
		r.addRows(p1, p2, p3, 0, l+1)
		return
	}
	par.For(l+1, r.grainPW, func(start, end int) { r.addRows(p1, p2, p3, start, end) })
}

func (r *Ring) addRows(p1, p2, p3 *Poly, start, end int) {
	for i := start; i < end; i++ {
		q := r.Moduli[i]
		c := p3.Coeffs[i][:r.N]
		a := p1.Coeffs[i][:len(c)]
		b := p2.Coeffs[i][:len(c)]
		for j := range c {
			c[j] = nt.Add(a[j], b[j], q)
		}
	}
}

// Sub sets p3 = p1 - p2 over the common rows of all three.
func (r *Ring) Sub(p1, p2, p3 *Poly) {
	l := minLevel(p1, p2, p3)
	par.For(l+1, r.grainPW, func(start, end int) {
		for i := start; i < end; i++ {
			q := r.Moduli[i]
			a, b, c := p1.Coeffs[i], p2.Coeffs[i], p3.Coeffs[i]
			for j := 0; j < r.N; j++ {
				c[j] = nt.Sub(a[j], b[j], q)
			}
		}
	})
}

// Neg sets p2 = -p1 over the common rows.
func (r *Ring) Neg(p1, p2 *Poly) {
	l := minLevel(p1, p2)
	par.For(l+1, r.grainPW, func(start, end int) {
		for i := start; i < end; i++ {
			q := r.Moduli[i]
			a, b := p1.Coeffs[i], p2.Coeffs[i]
			for j := 0; j < r.N; j++ {
				b[j] = nt.Neg(a[j], q)
			}
		}
	})
}

// MulCoeffs sets p3 = p1 ⊙ p2 (pointwise), valid in NTT domain.
func (r *Ring) MulCoeffs(p1, p2, p3 *Poly) {
	l := minLevel(p1, p2, p3)
	if par.Inline(l+1, r.grainPW) {
		r.mulCoeffsRows(p1, p2, p3, 0, l+1)
		return
	}
	par.For(l+1, r.grainPW, func(start, end int) { r.mulCoeffsRows(p1, p2, p3, start, end) })
}

func (r *Ring) mulCoeffsRows(p1, p2, p3 *Poly, start, end int) {
	for i := start; i < end; i++ {
		m := r.Mods[i]
		c := p3.Coeffs[i][:r.N]
		a := p1.Coeffs[i][:len(c)]
		b := p2.Coeffs[i][:len(c)]
		for j := range c {
			c[j] = nt.MulMod(a[j], b[j], m)
		}
	}
}

// MulCoeffsThenAdd sets p3 += p1 ⊙ p2 (pointwise), valid in NTT domain.
func (r *Ring) MulCoeffsThenAdd(p1, p2, p3 *Poly) {
	l := minLevel(p1, p2, p3)
	if par.Inline(l+1, r.grainPW) {
		r.mulCoeffsThenAddRows(p1, p2, p3, 0, l+1)
		return
	}
	par.For(l+1, r.grainPW, func(start, end int) { r.mulCoeffsThenAddRows(p1, p2, p3, start, end) })
}

func (r *Ring) mulCoeffsThenAddRows(p1, p2, p3 *Poly, start, end int) {
	for i := start; i < end; i++ {
		m := r.Mods[i]
		q := r.Moduli[i]
		c := p3.Coeffs[i][:r.N]
		a := p1.Coeffs[i][:len(c)]
		b := p2.Coeffs[i][:len(c)]
		for j := range c {
			c[j] = nt.Add(c[j], nt.MulMod(a[j], b[j], m), q)
		}
	}
}

// MulScalar sets p2 = p1 * scalar, where scalar is a non-negative integer.
func (r *Ring) MulScalar(p1 *Poly, scalar uint64, p2 *Poly) {
	l := minLevel(p1, p2)
	par.For(l+1, r.grainPW, func(start, end int) {
		for i := start; i < end; i++ {
			m := r.Mods[i]
			s := nt.BRedAdd(scalar, m)
			sp := nt.ShoupPrec(s, m.Q)
			a, b := p1.Coeffs[i], p2.Coeffs[i]
			for j := 0; j < r.N; j++ {
				b[j] = nt.MulModShoup(a[j], s, sp, m.Q)
			}
		}
	})
}

// Shift applies the negacyclic shift by k positions in coefficient domain:
// p2(X) = p1(X) * X^k mod (X^N+1). k may be negative.
func (r *Ring) Shift(p1 *Poly, k int, p2 *Poly) {
	n := r.N
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	l := minLevel(p1, p2)
	par.For(l+1, r.grainPW, func(start, end int) {
		// One scratch row per chunk: the shift writes every index of b
		// (j -> idx is a bijection), so it needs no zeroing between limbs.
		b := r.getBuf()
		defer r.putBuf(b)
		for i := start; i < end; i++ {
			q := r.Moduli[i]
			a := p1.Coeffs[i]
			for j := 0; j < n; j++ {
				idx := j + k
				neg := false
				if idx >= 2*n {
					idx -= 2 * n
				}
				if idx >= n {
					idx -= n
					neg = true
				}
				if neg {
					b[idx] = nt.Neg(a[j], q)
				} else {
					b[idx] = a[j]
				}
			}
			copy(p2.Coeffs[i], b)
		}
	})
}
