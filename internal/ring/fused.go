package ring

import (
	"antace/internal/nt"
	"antace/internal/par"
)

// Fused key-switching kernels. The polyir compiler pass FuseOperators
// already rewrites decomp+mod_up into poly.decomp_modup and
// modmul+modadd into poly.hw_modmuladd; this file makes the runtime
// execute those ops the way the IR describes them, instead of lowering
// back to one memory round trip per primitive:
//
//   - DecompModUpNTT converts each output row of the RNS digit lift and
//     immediately forward-NTTs it while the row is cache-hot, so the
//     coefficient-domain intermediate never travels back through memory;
//   - InnerProduct accumulates the evaluation-key inner product in
//     128-bit (hi, lo) pairs per coefficient, reducing once per digit
//     sum instead of once per multiply;
//   - ModDownNTT runs the whole INTT → base-conversion → P^-1 → NTT
//     tail of key switching as one pass per RNS row.
//
// All three use the same lazy-reduction discipline as the Harvey NTT
// (see ntt.go): with every modulus below 2^62 (enforced by NewRing),
// partial products of reduced operands are below 2^124, so each adds
// less than 2^60 to the accumulator's high word; folding with Red128
// whenever hi >= nt.LazyThreshold (2^63) leaves headroom for the next
// addition, and Red128 is exact for arbitrary 128-bit inputs at these
// moduli. Deferred reduction is exact modular arithmetic, so every
// kernel's fully-reduced output is bit-identical to the unfused
// primitive sequence it replaces — the differential and replay suites
// rely on that.

// fusedDigitBatch bounds both the digit-row pointers hoisted onto the
// stack per inner-product row and the number of unreduced products one
// (hi, lo) accumulator absorbs without an overflow check: 8 products of
// operands below 2^62 sum to less than 8 * 2^124 = 2^127, plus a carried
// reduced residue (< 2^62), which never overflows 128 bits — so inner
// loops over at most fusedDigitBatch terms need no fold branch at all.
// Longer digit lists are processed in batches, carrying the running sum
// through the reduced accumulator between them (exact, since reduction
// preserves the residue).
const fusedDigitBatch = 8

// DecompModUpNTT lifts the digit x = pQ mod D (D the product of the
// Q-basis primes with indices [start, end)) into the full basis
// Q_level ∪ P and forward-NTTs every output row, fusing
// poly.decomp_modup: outQ receives rows 0..level and outP all K rows of
// the P basis, all in NTT domain. pQ is in coefficient domain and pQNTT
// is the same polynomial in NTT domain: the digit's own rows are the
// lift's identity rows, so they are copied from pQNTT instead of being
// transformed again. The lift is the same approximate CRT conversion as
// ModUpDigitQP (result off by u*D, |u| <= end-start), with the per-term
// Barrett reduction of the inner product replaced by one lazy 128-bit
// accumulation per coefficient.
func (be *BasisExtender) DecompModUpNTT(pQ, pQNTT *Poly, start, end, level int, outQ, outP *Poly) {
	d := end - start
	dt := be.digitTableFor(start, end)
	// y_i = x_i * (D/d_i)^-1 mod d_i, shared by every output row.
	ys := be.rQ.GetPolyNoZero(d - 1)
	if par.Inline(d, be.rQ.grainPW) {
		be.scaleDigitRows(pQ, ys, dt, start, 0, d)
	} else {
		par.For(d, be.rQ.grainPW, func(s, e int) {
			be.scaleDigitRows(pQ, ys, dt, start, s, e)
		})
	}
	// Output rows are independent; each is converted (or copied, for the
	// digit's own rows) and NTT'd in one pass. The grain accounts for the
	// O(d·N) inner product plus the O(N·logN) transform per row.
	rows := level + 1 + len(be.rP.Moduli)
	grain := par.Grain(be.rQ.N * (d + be.rQ.LogN))
	if par.Inline(rows, grain) {
		be.modUpNTTRows(pQNTT, ys, dt, start, end, level, outQ, outP, 0, rows)
	} else {
		par.For(rows, grain, func(s, e int) {
			be.modUpNTTRows(pQNTT, ys, dt, start, end, level, outQ, outP, s, e)
		})
	}
	be.rQ.PutPoly(ys)
}

// scaleDigitRows computes ys rows [rs, re): the digit residues scaled by
// the CRT weights (D/d_t)^-1 mod d_t.
func (be *BasisExtender) scaleDigitRows(pQ, ys *Poly, dt *digitTable, start, rs, re int) {
	n := be.rQ.N
	for i := rs; i < re; i++ {
		q := be.rQ.Moduli[start+i]
		inv, invShoup := dt.inv[i], dt.invShoup[i]
		src := pQ.Coeffs[start+i]
		y := ys.Coeffs[i][:n]
		src = src[:len(y)]
		for k := range src {
			y[k] = nt.MulModShoup(src[k], inv, invShoup, q)
		}
	}
}

// modUpNTTRows converts-and-transforms output rows [rs, re) of the flat
// index space (Q rows first, then P rows); the digit's own rows are
// copied from the NTT-domain source.
func (be *BasisExtender) modUpNTTRows(pQNTT, ys *Poly, dt *digitTable, start, end, level int, outQ, outP *Poly, rs, re int) {
	for i := rs; i < re; i++ {
		switch {
		case i > level:
			j := i - level - 1
			convertRowLazy(ys.Coeffs, be.rP.Mods[j], dt.overP[j], outP.Coeffs[j])
			be.rP.nttRow(outP.Coeffs[j], j)
		case i >= start && i < end:
			copy(outQ.Coeffs[i], pQNTT.Coeffs[i])
		default:
			convertRowLazy(ys.Coeffs, be.rQ.Mods[i], dt.overQ[i], outQ.Coeffs[i])
			be.rQ.nttRow(outQ.Coeffs[i], i)
		}
	}
}

// convertRowLazy writes dst[k] = sum_i ys[i][k] * over[i] mod m with one
// lazy 128-bit accumulator per coefficient, batching fusedDigitBatch
// digits per accumulator so the inner loop carries no overflow branch.
func convertRowLazy(ys [][]uint64, m nt.Modulus, over, dst []uint64) {
	D := len(over)
	var yr [fusedDigitBatch][]uint64
	var ov [fusedDigitBatch]uint64
	for g := 0; g < D; g += fusedDigitBatch {
		b := D - g
		if b > fusedDigitBatch {
			b = fusedDigitBatch
		}
		for i := 0; i < b; i++ {
			yr[i] = ys[g+i]
			ov[i] = over[g+i]
		}
		for k := range dst {
			var hi, lo uint64
			if g > 0 {
				lo = dst[k]
			}
			for i := 0; i < b; i++ {
				hi, lo = nt.MulAdd128(yr[i][k], ov[i], hi, lo)
			}
			dst[k] = nt.Red128(hi, lo, m)
		}
	}
}

// InnerProduct sets out[k] = sum_d as[d][k] * bs[d][k] over the common
// rows (pointwise, NTT domain), fusing poly.hw_modmuladd: the digit sum
// is kept in a 128-bit (hi, lo) pair per coefficient and reduced once,
// and out is written exactly once — no per-digit accumulator reads and
// writes. as and bs must have equal length; an empty digit list zeroes
// out (so pooled, non-zeroed accumulators are safe to pass).
func (r *Ring) InnerProduct(as, bs []*Poly, out *Poly) {
	r.innerProduct(as, bs, out, false)
}

// InnerProductAdd is InnerProduct accumulating into out:
// out[k] += sum_d as[d][k] * bs[d][k], with out (reduced) entering the
// same 128-bit accumulator as the products. Sums over many digit lists
// — a linear transform's giant steps — stream through one accumulator
// this way instead of keeping every list alive.
func (r *Ring) InnerProductAdd(as, bs []*Poly, out *Poly) {
	r.innerProduct(as, bs, out, true)
}

func (r *Ring) innerProduct(as, bs []*Poly, out *Poly, acc bool) {
	if len(as) != len(bs) {
		panic("ring: InnerProduct digit count mismatch")
	}
	l := out.Level()
	for d := range as {
		if al := as[d].Level(); al < l {
			l = al
		}
		if bl := bs[d].Level(); bl < l {
			l = bl
		}
	}
	grain := par.Grain(r.N * (len(as) + 1))
	if par.Inline(l+1, grain) {
		r.innerProductRows(as, bs, out, acc, 0, l+1)
	} else {
		par.For(l+1, grain, func(s, e int) { r.innerProductRows(as, bs, out, acc, s, e) })
	}
}

// innerProductRows computes the digit inner product for rows
// [start, end). Digit row pointers are hoisted into fixed stack arrays
// in batches of fusedDigitBatch; between batches the running sum is
// carried through the reduced accumulator (exact, since reduction
// preserves the residue); acc carries out's incoming value the same way.
func (r *Ring) innerProductRows(as, bs []*Poly, out *Poly, acc bool, start, end int) {
	n := r.N
	D := len(as)
	var ar, br [fusedDigitBatch][]uint64
	for i := start; i < end; i++ {
		m := r.Mods[i]
		dst := out.Coeffs[i]
		if D == 0 {
			if !acc {
				for k := 0; k < n; k++ {
					dst[k] = 0
				}
			}
			continue
		}
		for g := 0; g < D; g += fusedDigitBatch {
			b := D - g
			if b > fusedDigitBatch {
				b = fusedDigitBatch
			}
			for d := 0; d < b; d++ {
				ar[d] = as[g+d].Coeffs[i]
				br[d] = bs[g+d].Coeffs[i]
			}
			carry := acc || g > 0
			for k := 0; k < n; k++ {
				var hi, lo uint64
				if carry {
					lo = dst[k]
				}
				for d := 0; d < b; d++ {
					hi, lo = nt.MulAdd128(ar[d][k], br[d][k], hi, lo)
				}
				dst[k] = nt.Red128(hi, lo, m)
			}
		}
	}
}

// ModDownNTT computes round((xQ, xP) / P) mod Q_l for polynomials in NTT
// domain, writing the NTT-domain result into pQ (input and output at
// level l). It fuses the whole key-switch tail that was previously four
// full-polynomial passes (INTT Q, INTT P, ModDownQP, NTT Q): each P row
// is inverse-transformed and scaled in one pass, then each Q row is
// inverse-transformed, base-converted (lazy 128-bit accumulation),
// corrected by P^-1 and forward-transformed while still cache-resident.
func (be *BasisExtender) ModDownNTT(pQ, pP *Poly) {
	l := pQ.Level()
	K := len(be.rP.Moduli)
	// y_j = INTT(x_j) * (P/p_j)^-1 mod p_j.
	ys := be.rP.GetPolyNoZero(K - 1)
	if par.Inline(K, be.rP.grainNTT) {
		be.modDownPRows(pP, ys, 0, K)
	} else {
		par.For(K, be.rP.grainNTT, func(s, e int) { be.modDownPRows(pP, ys, s, e) })
	}
	grain := par.Grain(be.rQ.N * (K + 2*be.rQ.LogN))
	if par.Inline(l+1, grain) {
		be.modDownQRowsNTT(pQ, ys, 0, l+1)
	} else {
		par.For(l+1, grain, func(s, e int) { be.modDownQRowsNTT(pQ, ys, s, e) })
	}
	be.rP.PutPoly(ys)
}

// modDownPRows fills ys rows [start, end): INTT of the P-basis rows
// scaled by the CRT weights (P/p_j)^-1 mod p_j.
func (be *BasisExtender) modDownPRows(pP, ys *Poly, start, end int) {
	n := be.rP.N
	for j := start; j < end; j++ {
		y := ys.Coeffs[j]
		copy(y, pP.Coeffs[j])
		be.rP.inttRow(y, j)
		q := be.rP.Moduli[j]
		inv, invShoup := be.poverpjInv[j], be.poverpjInvShoup[j]
		yn := y[:n]
		for k := range yn {
			yn[k] = nt.MulModShoup(yn[k], inv, invShoup, q)
		}
	}
}

// modDownQRowsNTT finishes Q rows [start, end): INTT, subtract the
// base-converted P part, multiply by P^-1 and NTT back, all in one pass
// over the row.
func (be *BasisExtender) modDownQRowsNTT(pQ, ys *Poly, start, end int) {
	n := be.rQ.N
	K := len(be.rP.Moduli)
	yrows := ys.Coeffs
	var yr [fusedDigitBatch][]uint64
	var ov [fusedDigitBatch]uint64
	for i := start; i < end; i++ {
		mq := be.rQ.Mods[i]
		qi := mq.Q
		dst := pQ.Coeffs[i]
		be.rQ.inttRow(dst, i)
		pinv, pinvShoup := be.pInvModQ[i], be.pInvModQShoup[i]
		if K <= fusedDigitBatch {
			for j := 0; j < K; j++ {
				yr[j] = yrows[j]
				ov[j] = be.poverpjModQ[j][i]
			}
			for k := 0; k < n; k++ {
				var hi, lo uint64
				for j := 0; j < K; j++ {
					hi, lo = nt.MulAdd128(yr[j][k], ov[j], hi, lo)
				}
				conv := nt.Red128(hi, lo, mq)
				dst[k] = nt.MulModShoup(nt.Sub(dst[k], conv, qi), pinv, pinvShoup, qi)
			}
		} else {
			for k := 0; k < n; k++ {
				var hi, lo uint64
				for j := 0; j < K; j++ {
					hi, lo = nt.MulAdd128(yrows[j][k], be.poverpjModQ[j][i], hi, lo)
					if hi >= nt.LazyThreshold {
						lo = nt.Red128(hi, lo, mq)
						hi = 0
					}
				}
				conv := nt.Red128(hi, lo, mq)
				dst[k] = nt.MulModShoup(nt.Sub(dst[k], conv, qi), pinv, pinvShoup, qi)
			}
		}
		be.rQ.nttRow(dst, i)
	}
}
