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
//   - ModDownNTT divides by P without taking the Q rows out of the NTT
//     domain: only the K special-prime rows are inverse-transformed, and
//     their base conversion into each Q row is transformed forward and
//     subtracted there, one pass per RNS row.
//
// All three use the same lazy-reduction discipline as the Harvey NTT
// (see ntt.go): with every modulus below 2^62 (enforced by NewRing),
// partial products of reduced operands are below 2^124, so each adds
// less than 2^60 to the accumulator's high word, and a batch of
// fusedDigitBatch products needs no overflow check; one exact reduction
// per coefficient per batch finishes the sum. Deferred reduction is
// exact modular arithmetic, so every kernel's fully-reduced output is
// bit-identical to the unfused primitive sequence it replaces — the
// differential and replay suites rely on that.
//
// The loops are straight-line (rows.go, ntt.go). The inner product and
// the base conversions dispatch on the digit count: each pass is a loop
// over the coefficients with one fixed-width body of 1 to 4 terms, its
// digit rows hoisted once per RNS row and resliced to N, so the (hi, lo)
// accumulator stays in registers with no inner loop and no bounds check,
// and the reduction is a row-local helper the compiler inlines. The
// transforms run their short-stride stages (t = 4, 2, 1) as fixed 8-word
// butterfly blocks and the rest two stages per pass.

// fusedDigitBatch bounds the number of unreduced products one (hi, lo)
// accumulator absorbs without an overflow check: 8 products of operands
// below 2^62 sum to less than 8 * 2^124 = 2^127, plus a carried reduced
// residue (< 2^62), which never overflows 128 bits — so a sum of at most
// fusedDigitBatch terms needs no fold branch at all.
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
// transformed again. The lift is the approximate (HPS) CRT conversion:
// the result equals x + u*D for a small integer |u| <= end-start, which
// hybrid key switching tolerates. Its inner product is one lazy 128-bit
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
	hiP, loP := be.rQ.getScratch(end - start)
	defer be.rQ.putScratch(hiP, loP)
	hi, lo := *hiP, *loP
	for i := rs; i < re; i++ {
		switch {
		case i > level:
			j := i - level - 1
			be.rQ.convertRow(ys.Coeffs, be.rP.Mods[j], dt.overP[j], outP.Coeffs[j], hi, lo)
			be.rP.nttRow(outP.Coeffs[j], j)
		case i >= start && i < end:
			copy(outQ.Coeffs[i], pQNTT.Coeffs[i])
		default:
			be.rQ.convertRow(ys.Coeffs, be.rQ.Mods[i], dt.overQ[i], outQ.Coeffs[i], hi, lo)
			be.rQ.nttRow(outQ.Coeffs[i], i)
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
	r.innerProduct(as, nil, bs, out, false)
}

// InnerProductAdd is InnerProduct accumulating into out:
// out[k] += sum_d as[d][k] * bs[d][k], with out (reduced) entering the
// same 128-bit accumulator as the products. Sums over many digit lists
// — a linear transform's giant steps — stream through one accumulator
// this way instead of keeping every list alive.
func (r *Ring) InnerProductAdd(as, bs []*Poly, out *Poly) {
	r.innerProduct(as, nil, bs, out, true)
}

// InnerProductPermuted is InnerProduct (acc false) or InnerProductAdd
// (acc true) with every as[d] read through the NTT-domain automorphism
// index table idx (see AutomorphismNTTIndex): out[k] (+)= sum_d
// as[d][idx[k]] * bs[d][k]. It is the key product of a rotation whose
// source was decomposed before the rotation, without writing the
// permuted digits out first; the result is bit-identical to permuting
// with AutomorphismNTT and taking the plain inner product.
func (r *Ring) InnerProductPermuted(as []*Poly, idx []int, bs []*Poly, out *Poly, acc bool) {
	r.innerProduct(as, idx, bs, out, acc)
}

func (r *Ring) innerProduct(as []*Poly, idx []int, bs []*Poly, out *Poly, acc bool) {
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
		r.innerProductRows(as, idx, bs, out, acc, 0, l+1)
	} else {
		par.For(l+1, grain, func(s, e int) { r.innerProductRows(as, idx, bs, out, acc, s, e) })
	}
}

// ModDownNTT computes round((xQ, xP) / P) mod Q_l for polynomials in NTT
// domain, writing the NTT-domain result into pQ (input and output at
// level l). It fuses the whole key-switch tail into two passes: each P
// row is inverse-transformed and scaled, then each Q row receives the
// base-converted P part (lazy 128-bit accumulation), transformed forward
// while still cache-resident, and is corrected by P^-1 in the NTT
// domain. The Q rows themselves never leave the NTT domain: the
// transform is a ring isomorphism, so (x − NTT(conv))·P^-1 is
// NTT((INTT(x) − conv)·P^-1) exactly, at K + (l+1) transforms per half
// instead of K + 2(l+1).
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
	grain := par.Grain(be.rQ.N * (K + be.rQ.LogN))
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

// modDownQRowsNTT finishes Q rows [start, end): base-convert the P part
// into a scratch row, transform it forward, then subtract it from the
// NTT-domain row and multiply by P^-1, one pass over the row.
func (be *BasisExtender) modDownQRowsNTT(pQ, ys *Poly, start, end int) {
	convP := be.rQ.getBuf()
	defer be.rQ.putBuf(convP)
	conv := *convP
	hiP, loP := be.rQ.getScratch(len(ys.Coeffs))
	defer be.rQ.putScratch(hiP, loP)
	hi, lo := *hiP, *loP
	for i := start; i < end; i++ {
		mq := be.rQ.Mods[i]
		qi := mq.Q
		be.rQ.convertRow(ys.Coeffs, mq, be.poverpjModQ[i], conv, hi, lo)
		be.rQ.nttRow(conv, i)
		pinv, pinvShoup := be.pInvModQ[i], be.pInvModQShoup[i]
		dst := pQ.Coeffs[i]
		c := conv[:len(dst)]
		for k := range dst {
			dst[k] = nt.MulModShoup(nt.Sub(dst[k], c[k], qi), pinv, pinvShoup, qi)
		}
	}
}
