package ring

import (
	"math/bits"

	"antace/internal/nt"
	"antace/internal/par"
)

// bitReverse returns the logN-bit reversal of i.
func bitReverse(i, logN int) int {
	return int(bits.Reverse64(uint64(i)) >> (64 - logN))
}

// newNTTTables precomputes the bit-reversed twiddle tables for the
// negacyclic NTT (Longa–Naehrig style) modulo m.Q with 2N-th root psi.
func newNTTTables(n int, psi uint64, m nt.Modulus) nttTables {
	logN := bits.Len(uint(n)) - 1
	t := nttTables{
		psiRev:         make([]uint64, n),
		psiRevShoup:    make([]uint64, n),
		psiInvRev:      make([]uint64, n),
		psiInvRevShoup: make([]uint64, n),
	}
	psiInv := nt.ModInverse(psi, m)
	pow, powInv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		j := bitReverse(i, logN)
		t.psiRev[j] = pow
		t.psiInvRev[j] = powInv
		pow = nt.MulMod(pow, psi, m)
		powInv = nt.MulMod(powInv, psiInv, m)
	}
	for i := 0; i < n; i++ {
		t.psiRevShoup[i] = nt.ShoupPrec(t.psiRev[i], m.Q)
		t.psiInvRevShoup[i] = nt.ShoupPrec(t.psiInvRev[i], m.Q)
	}
	t.nInv = nt.ModInverse(uint64(n), m)
	t.nInvShoup = nt.ShoupPrec(t.nInv, m.Q)
	return t
}

// NTT transforms p (coefficient domain) into pOut (NTT domain) in place per
// row. The output ordering places the evaluation at psi^(2*brv(i)+1) in
// slot i, the convention assumed by the automorphism index tables.
func (r *Ring) NTT(p, pOut *Poly) {
	l := minLevel(p, pOut)
	if par.Inline(l+1, r.grainNTT) {
		r.nttRows(p, pOut, 0, l+1)
		return
	}
	par.For(l+1, r.grainNTT, func(start, end int) { r.nttRows(p, pOut, start, end) })
}

// INTT transforms p (NTT domain) into pOut (coefficient domain).
func (r *Ring) INTT(p, pOut *Poly) {
	l := minLevel(p, pOut)
	if par.Inline(l+1, r.grainNTT) {
		r.inttRows(p, pOut, 0, l+1)
		return
	}
	par.For(l+1, r.grainNTT, func(start, end int) { r.inttRows(p, pOut, start, end) })
}

// nttRows forward-transforms rows [start, end), copying out-of-place
// inputs first. Named (rather than a closure) so the serial path of
// NTT/INTT allocates nothing.
func (r *Ring) nttRows(p, pOut *Poly, start, end int) {
	for i := start; i < end; i++ {
		if &p.Coeffs[i][0] != &pOut.Coeffs[i][0] {
			copy(pOut.Coeffs[i], p.Coeffs[i])
		}
		r.nttRow(pOut.Coeffs[i], i)
	}
}

// inttRows is the inverse-transform sibling of nttRows.
func (r *Ring) inttRows(p, pOut *Poly, start, end int) {
	for i := start; i < end; i++ {
		if &p.Coeffs[i][0] != &pOut.Coeffs[i][0] {
			copy(pOut.Coeffs[i], p.Coeffs[i])
		}
		r.inttRow(pOut.Coeffs[i], i)
	}
}

// nttRow applies the forward negacyclic NTT in place on one RNS row,
// using Harvey-style lazy butterflies: coefficients are kept in [0, 4q)
// across stages, each butterfly performs at most one conditional
// subtraction (folding the top operand back into [0, 2q)), and the full
// Barrett-style correction runs only once, folded into the final stage.
// MulModShoupLazy tolerates any uint64 input and returns [0, 2q), so
// with q < 2^62 (enforced by NewRing) the invariant
//
//	a[j] = u + v           < 2q + 2q = 4q < 2^64
//	a[j+t] = u + 2q - v    < 4q
//
// holds for every stage. The outputs are fully reduced (< q) and — since
// lazy reduction is exact modular arithmetic with deferred carries —
// bit-identical to the eager butterfly's.
//
// The stages run in their usual order, but not one pass per stage. The
// stages with half-width t >= 8 go two at a time: one pass over four
// quarter-slices per block applies both stages' butterflies in
// registers (a leading single stage when their number is odd). The last
// three stages (t = 4, 2, 1) go together as straight-line butterflies
// over fixed 8-word blocks, seven twiddles per block. Rings below N = 8
// run every stage through the single-stage loop.
func (r *Ring) nttRow(a []uint64, row int) {
	n := r.N
	a = a[:n]
	q := r.Moduli[row]
	twoQ := q << 1
	tab := &r.tables[row]
	psi, psiShoup := tab.psiRev[:n], tab.psiRevShoup[:n]
	if n < 8 {
		for m, t := 1, n>>1; m < n; m, t = m<<1, t>>1 {
			ctStage(a, psi, psiShoup, m, t, q, twoQ)
		}
		for j := range a {
			a[j] = reduce4q(a[j], q, twoQ)
		}
		return
	}
	m, t := 1, n
	if (r.LogN-3)%2 == 1 {
		t >>= 1
		ctStage(a, psi, psiShoup, 1, t, q, twoQ)
		m = 2
	}
	// Block i of t words: stage m splits it in halves (twiddle m+i),
	// stage 2m each half in quarters (twiddles 2(m+i), 2(m+i)+1).
	for ; m < n>>3; m, t = m<<2, t>>2 {
		h := t >> 2
		for i := 0; i < m; i++ {
			w, wp := psi[m+i], psiShoup[m+i]
			wa, wap := psi[2*(m+i)], psiShoup[2*(m+i)]
			wb, wbp := psi[2*(m+i)+1], psiShoup[2*(m+i)+1]
			x0 := a[i*t : i*t+h]
			x1 := a[i*t+h : i*t+2*h][:len(x0)]
			x2 := a[i*t+2*h : i*t+3*h][:len(x0)]
			x3 := a[i*t+3*h : i*t+4*h][:len(x0)]
			for j := range x0 {
				u0, u2 := ctButterfly(x0[j], x2[j], w, wp, q, twoQ)
				u1, u3 := ctButterfly(x1[j], x3[j], w, wp, q, twoQ)
				x0[j], x1[j] = ctButterfly(u0, u1, wa, wap, q, twoQ)
				x2[j], x3[j] = ctButterfly(u2, u3, wb, wbp, q, twoQ)
			}
		}
	}
	// t = 4, 2, 1, the last with the batch reduction from [0, 4q) to
	// [0, q) folded in, so no separate correction pass over the row is
	// needed.
	w4s, w4ps := twiddleSpan(psi, psiShoup, n>>3)
	w2s, w2ps := twiddleSpan(psi, psiShoup, n>>2)
	w1s, w1ps := twiddleSpan(psi, psiShoup, n>>1)
	for i, w := range w4s {
		wp := w4ps[i]
		x := (*[8]uint64)(a[8*i:])
		x0, x4 := ctButterfly(x[0], x[4], w, wp, q, twoQ)
		x1, x5 := ctButterfly(x[1], x[5], w, wp, q, twoQ)
		x2, x6 := ctButterfly(x[2], x[6], w, wp, q, twoQ)
		x3, x7 := ctButterfly(x[3], x[7], w, wp, q, twoQ)
		w2, w2p := (*[2]uint64)(w2s[2*i:]), (*[2]uint64)(w2ps[2*i:])
		x0, x2 = ctButterfly(x0, x2, w2[0], w2p[0], q, twoQ)
		x1, x3 = ctButterfly(x1, x3, w2[0], w2p[0], q, twoQ)
		x4, x6 = ctButterfly(x4, x6, w2[1], w2p[1], q, twoQ)
		x5, x7 = ctButterfly(x5, x7, w2[1], w2p[1], q, twoQ)
		w1, w1p := (*[4]uint64)(w1s[4*i:]), (*[4]uint64)(w1ps[4*i:])
		x0, x1 = ctButterfly(x0, x1, w1[0], w1p[0], q, twoQ)
		x2, x3 = ctButterfly(x2, x3, w1[1], w1p[1], q, twoQ)
		x4, x5 = ctButterfly(x4, x5, w1[2], w1p[2], q, twoQ)
		x6, x7 = ctButterfly(x6, x7, w1[3], w1p[3], q, twoQ)
		x[0], x[1] = reduce4q(x0, q, twoQ), reduce4q(x1, q, twoQ)
		x[2], x[3] = reduce4q(x2, q, twoQ), reduce4q(x3, q, twoQ)
		x[4], x[5] = reduce4q(x4, q, twoQ), reduce4q(x5, q, twoQ)
		x[6], x[7] = reduce4q(x6, q, twoQ), reduce4q(x7, q, twoQ)
	}
}

// ctStage runs one forward stage on its own: m blocks of 2t words, block
// i with twiddle m+i.
func ctStage(a, psi, psiShoup []uint64, m, t int, q, twoQ uint64) {
	for i := 0; i < m; i++ {
		w, wp := psi[m+i], psiShoup[m+i]
		// Slicing the two butterfly halves to equal length lets the
		// compiler drop the bounds checks from the inner loop.
		x := a[2*i*t : 2*i*t+t]
		y := a[2*i*t+t : 2*i*t+2*t][:len(x)]
		for j := range x {
			x[j], y[j] = ctButterfly(x[j], y[j], w, wp, q, twoQ)
		}
	}
}

// ctButterfly is the lazy Cooley–Tukey butterfly: u, v in [0, 4q) map
// to u + w·v and u − w·v, both in [0, 4q).
func ctButterfly(u, v, w, wp, q, twoQ uint64) (uint64, uint64) {
	if u >= twoQ {
		u -= twoQ
	}
	v = nt.MulModShoupLazy(v, w, wp, q)
	return u + v, u + twoQ - v
}

// reduce4q maps [0, 4q) to [0, q).
func reduce4q(x, q, twoQ uint64) uint64 {
	if x >= twoQ {
		x -= twoQ
	}
	if x >= q {
		x -= q
	}
	return x
}

// twiddleSpan returns the m twiddles (and their Shoup constants) of the
// stage with m blocks, entries [m, 2m) of the bit-reversed tables.
func twiddleSpan(w, wp []uint64, m int) ([]uint64, []uint64) {
	ws := w[m : 2*m]
	return ws, wp[m : m+len(ws)]
}

// inttRow applies the inverse negacyclic NTT in place on one RNS row.
// The inverse butterflies keep coefficients in [0, 2q): the sum gets one
// conditional subtraction, the difference u + 2q - v (< 4q) feeds the
// lazy Shoup multiply which lands back in [0, 2q). The n^-1 fold performs
// the only strict reduction — MulModShoup's single conditional
// subtraction fully reduces any input in [0, 2^64). The passes mirror
// nttRow's: the first three stages (t = 1, 2, 4) per 8-word block, the
// rest two at a time (a trailing single stage when their number is odd).
func (r *Ring) inttRow(a []uint64, row int) {
	n := r.N
	a = a[:n]
	q := r.Moduli[row]
	twoQ := q << 1
	tab := &r.tables[row]
	psi, psiShoup := tab.psiInvRev[:n], tab.psiInvRevShoup[:n]
	h, t := n>>1, 1
	if n >= 8 {
		w1s, w1ps := twiddleSpan(psi, psiShoup, n>>1)
		w2s, w2ps := twiddleSpan(psi, psiShoup, n>>2)
		w4s, w4ps := twiddleSpan(psi, psiShoup, n>>3)
		for i, w := range w4s {
			x := (*[8]uint64)(a[8*i:])
			w1, w1p := (*[4]uint64)(w1s[4*i:]), (*[4]uint64)(w1ps[4*i:])
			x0, x1 := gsButterfly(x[0], x[1], w1[0], w1p[0], q, twoQ)
			x2, x3 := gsButterfly(x[2], x[3], w1[1], w1p[1], q, twoQ)
			x4, x5 := gsButterfly(x[4], x[5], w1[2], w1p[2], q, twoQ)
			x6, x7 := gsButterfly(x[6], x[7], w1[3], w1p[3], q, twoQ)
			w2, w2p := (*[2]uint64)(w2s[2*i:]), (*[2]uint64)(w2ps[2*i:])
			x0, x2 = gsButterfly(x0, x2, w2[0], w2p[0], q, twoQ)
			x1, x3 = gsButterfly(x1, x3, w2[0], w2p[0], q, twoQ)
			x4, x6 = gsButterfly(x4, x6, w2[1], w2p[1], q, twoQ)
			x5, x7 = gsButterfly(x5, x7, w2[1], w2p[1], q, twoQ)
			wp := w4ps[i]
			x[0], x[4] = gsButterfly(x0, x4, w, wp, q, twoQ)
			x[1], x[5] = gsButterfly(x1, x5, w, wp, q, twoQ)
			x[2], x[6] = gsButterfly(x2, x6, w, wp, q, twoQ)
			x[3], x[7] = gsButterfly(x3, x7, w, wp, q, twoQ)
		}
		// Block i of 4t words: stage h butterflies its two halves
		// (twiddles h+2i, h+2i+1), stage h/2 the whole (twiddle h/2+i).
		h, t = n>>4, 8
		for ; h > 1; h, t = h>>2, t<<2 {
			for i := 0; i < h>>1; i++ {
				wa, wap := psi[h+2*i], psiShoup[h+2*i]
				wb, wbp := psi[h+2*i+1], psiShoup[h+2*i+1]
				w, wp := psi[h>>1+i], psiShoup[h>>1+i]
				x0 := a[4*i*t : 4*i*t+t]
				x1 := a[4*i*t+t : 4*i*t+2*t][:len(x0)]
				x2 := a[4*i*t+2*t : 4*i*t+3*t][:len(x0)]
				x3 := a[4*i*t+3*t : 4*i*t+4*t][:len(x0)]
				for j := range x0 {
					u0, u1 := gsButterfly(x0[j], x1[j], wa, wap, q, twoQ)
					u2, u3 := gsButterfly(x2[j], x3[j], wb, wbp, q, twoQ)
					x0[j], x2[j] = gsButterfly(u0, u2, w, wp, q, twoQ)
					x1[j], x3[j] = gsButterfly(u1, u3, w, wp, q, twoQ)
				}
			}
		}
	}
	for ; h >= 1; h, t = h>>1, t<<1 {
		gsStage(a, psi, psiShoup, h, t, q, twoQ)
	}
	for j := range a {
		a[j] = nt.MulModShoup(a[j], tab.nInv, tab.nInvShoup, q)
	}
}

// gsStage runs one inverse stage on its own: h blocks of 2t words, block
// i with twiddle h+i.
func gsStage(a, psi, psiShoup []uint64, h, t int, q, twoQ uint64) {
	for i := 0; i < h; i++ {
		w, wp := psi[h+i], psiShoup[h+i]
		x := a[2*i*t : 2*i*t+t]
		y := a[2*i*t+t : 2*i*t+2*t][:len(x)]
		for j := range x {
			x[j], y[j] = gsButterfly(x[j], y[j], w, wp, q, twoQ)
		}
	}
}

// gsButterfly is the lazy Gentleman–Sande butterfly: u, v in [0, 2q)
// map to u + v and (u − v)·w, both in [0, 2q).
func gsButterfly(u, v, w, wp, q, twoQ uint64) (uint64, uint64) {
	x := u + v
	if x >= twoQ {
		x -= twoQ
	}
	return x, nt.MulModShoupLazy(u+twoQ-v, w, wp, q)
}

// MulPolyNaive computes p3 = p1 * p2 by schoolbook negacyclic convolution
// in coefficient domain. Quadratic; used only by tests as a reference.
// Every (j,k) pair is accumulated unconditionally — no sparsity shortcut —
// so the reference exercises the exact same index arithmetic for zero and
// nonzero coefficients alike.
func (r *Ring) MulPolyNaive(p1, p2, p3 *Poly) {
	l := minLevel(p1, p2, p3)
	n := r.N
	par.For(l+1, par.Grain(n*n), func(start, end int) {
		cP := r.getBuf()
		defer r.putBuf(cP)
		c := *cP
		for i := start; i < end; i++ {
			m := r.Mods[i]
			q := r.Moduli[i]
			a, b := p1.Coeffs[i], p2.Coeffs[i]
			for j := range c {
				c[j] = 0
			}
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					prod := nt.MulMod(a[j], b[k], m)
					idx := j + k
					if idx >= n {
						c[idx-n] = nt.Sub(c[idx-n], prod, q)
					} else {
						c[idx] = nt.Add(c[idx], prod, q)
					}
				}
			}
			copy(p3.Coeffs[i], c)
		}
	})
}
