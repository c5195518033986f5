package ring

import (
	"antace/internal/nt"
	"antace/internal/par"
)

// Automorphism applies the Galois automorphism X -> X^gal (gal odd, taken
// mod 2N) to p1 in coefficient domain, writing the result to p2.
func (r *Ring) Automorphism(p1 *Poly, gal uint64, p2 *Poly) {
	n := uint64(r.N)
	mask := 2*n - 1
	l := minLevel(p1, p2)
	par.For(l+1, r.grainPW, func(start, end int) {
		// j -> (j*gal)&mask is a bijection for odd gal, so the scratch row
		// is fully overwritten per limb and needs no zeroing.
		tmpP := r.getBuf()
		defer r.putBuf(tmpP)
		tmp := *tmpP
		for i := start; i < end; i++ {
			q := r.Moduli[i]
			a := p1.Coeffs[i]
			for j := uint64(0); j < n; j++ {
				idx := (j * gal) & mask
				if idx < n {
					tmp[idx] = a[j]
				} else {
					tmp[idx-n] = nt.Neg(a[j], q)
				}
			}
			copy(p2.Coeffs[i], tmp)
		}
	})
}

// AutomorphismNTTIndex precomputes the permutation applied by the Galois
// automorphism X -> X^gal when polynomials are in NTT domain: slot i of the
// output takes its value from slot index[i] of the input.
func (r *Ring) AutomorphismNTTIndex(gal uint64) []int {
	n := uint64(r.N)
	mask := 2*n - 1
	index := make([]int, n)
	for i := uint64(0); i < n; i++ {
		// Slot i holds the evaluation at exponent e = 2*brv(i)+1.
		// The automorphism maps a(X) to a(X^gal), whose evaluation at
		// psi^e equals the input's evaluation at psi^(e*gal).
		e := 2*uint64(bitReverse(int(i), r.LogN)) + 1
		src := ((gal*e)&mask - 1) >> 1
		index[i] = bitReverse(int(src), r.LogN)
	}
	return index
}

// AutomorphismNTT applies the automorphism to p1 in NTT domain using a
// precomputed index table, writing to p2 (which must differ from p1 or the
// caller must accept in-place semantics via the internal buffer).
func (r *Ring) AutomorphismNTT(p1 *Poly, index []int, p2 *Poly) {
	l := minLevel(p1, p2)
	n := r.N
	par.For(l+1, r.grainPW, func(start, end int) {
		var tmp []uint64
		for i := start; i < end; i++ {
			a, b := p1.Coeffs[i], p2.Coeffs[i]
			if &a[0] == &b[0] {
				if tmp == nil {
					tmpP := r.getBuf()
					defer r.putBuf(tmpP)
					tmp = *tmpP
				}
				copy(tmp, a)
				a = tmp
			}
			for j := 0; j < n; j++ {
				b[j] = a[index[j]]
			}
		}
	})
}

// GaloisElementForRotation returns the Galois element 5^k mod 2N realising
// a cyclic rotation of the CKKS slot vector by k positions (k may be
// negative).
func (r *Ring) GaloisElementForRotation(k int) uint64 {
	n2 := uint64(2 * r.N)
	order := uint64(r.N / 2) // order of 5 in Z_2N^* / {±1}
	kk := uint64(((k % int(order)) + int(order))) % order
	gal := uint64(1)
	base := uint64(5)
	for e := kk; e > 0; e >>= 1 {
		if e&1 == 1 {
			gal = gal * base % n2
		}
		base = base * base % n2
	}
	return gal
}

// GaloisElementForConjugation returns the Galois element 2N-1 realising
// complex conjugation of the CKKS slots.
func (r *Ring) GaloisElementForConjugation() uint64 {
	return uint64(2*r.N - 1)
}
