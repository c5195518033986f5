package ring

import (
	"antace/internal/nt"
	"antace/internal/par"
)

// Coefficient-domain references for the fused kernels: the plain
// primitive sequence each fused kernel replaces, one Barrett reduction
// per term. The fused kernels' tests compare against them bit for bit.

// DivRoundByLastModulus divides p (coefficient domain, level l) by its last
// modulus q_l with rounding, writing the level l-1 result into pOut:
// the coefficient-domain reference for DivRoundByLastModulusNTT.
func (r *Ring) DivRoundByLastModulus(p, pOut *Poly) error {
	l := p.Level()
	if l == 0 {
		return errRescaleLevel0
	}
	n := r.N
	ql := r.Moduli[l]
	half := ql >> 1
	last := p.Coeffs[l]
	par.For(l, r.grainPW, func(start, end int) {
		for i := start; i < end; i++ {
			qi := r.Moduli[i]
			mi := r.Mods[i]
			inv := r.rescaleQlInv[l][i]
			invShoup := r.rescaleQlInvShoup[l][i]
			a, b := p.Coeffs[i], pOut.Coeffs[i]
			for j := 0; j < n; j++ {
				// Centered remainder of the last row, reduced mod q_i.
				xl := last[j]
				var delta uint64
				if xl > half {
					delta = qi - nt.BRedAdd(ql-xl, mi)
					if delta == qi {
						delta = 0
					}
				} else {
					delta = nt.BRedAdd(xl, mi)
				}
				b[j] = nt.MulModShoup(nt.Sub(a[j], delta, qi), inv, invShoup, qi)
			}
		}
	})
	pOut.Coeffs = pOut.Coeffs[:l]
	return nil
}

// ModUpDigitQP lifts the digit x = pQ mod D (where D is the product of the
// Q-basis primes with indices [start, end)) into the full basis
// Q_level ∪ P: outQ receives rows 0..level (digit rows copied verbatim,
// the others base-converted) and outP receives all K rows of the P basis.
// Input and outputs are in coefficient domain. The conversion is the
// approximate CRT lift: the result equals x + u*D for a small integer
// |u| <= end-start, which hybrid key switching tolerates.
func (be *BasisExtender) ModUpDigitQP(pQ *Poly, start, end, level int, outQ, outP *Poly) {
	n := be.rQ.N
	K := len(be.rP.Moduli)
	d := end - start
	digitMods := be.rQ.Moduli[start:end]
	dt := be.digitTableFor(start, end)
	// y_i = x_i * (D/d_i)^-1 mod d_i, then x mod m ~= sum_i y_i*(D/d_i) mod m.
	ys := make([][]uint64, d)
	for i := range ys {
		ys[i] = make([]uint64, be.rQ.N)
	}
	par.For(d, be.rQ.grainPW, func(dStart, dEnd int) {
		for i := dStart; i < dEnd; i++ {
			q := digitMods[i]
			src := pQ.Coeffs[start+i]
			y := ys[i]
			for k := 0; k < n; k++ {
				y[k] = nt.MulModShoup(src[k], dt.inv[i], dt.invShoup[i], q)
			}
		}
	})
	convertTo := func(m nt.Modulus, over, dst []uint64) {
		for k := 0; k < n; k++ {
			acc := uint64(0)
			for i := 0; i < d; i++ {
				acc = nt.Add(acc, nt.MulMod(ys[i][k], over[i], m), m.Q)
			}
			dst[k] = acc
		}
	}
	// The output rows — level+1 in the Q basis plus K in the P basis — are
	// independent; distribute them over one flat index space. The grain
	// accounts for the O(d·N) inner product per row.
	par.For(level+1+K, par.Grain(d*n), func(rStart, rEnd int) {
		for i := rStart; i < rEnd; i++ {
			switch {
			case i > level:
				j := i - level - 1
				convertTo(be.rP.Mods[j], dt.overP[j], outP.Coeffs[j])
			case i >= start && i < end:
				copy(outQ.Coeffs[i], pQ.Coeffs[i])
			default:
				convertTo(be.rQ.Mods[i], dt.overQ[i], outQ.Coeffs[i])
			}
		}
	})
}

// ModDownQP computes round((xQ, xP) / P) mod Q_l: the P-part is base-
// converted to Q and subtracted, then the result is multiplied by P^-1.
// All polynomials are in coefficient domain. pQ is both input (level l)
// and output.
func (be *BasisExtender) ModDownQP(pQ, pP *Poly) {
	l := pQ.Level()
	n := be.rQ.N
	K := len(be.rP.Moduli)
	// y_j = x_j * (P/p_j)^-1 mod p_j.
	ys := make([][]uint64, K)
	for j := range ys {
		ys[j] = make([]uint64, be.rQ.N)
	}
	par.For(K, be.rQ.grainPW, func(start, end int) {
		for j := start; j < end; j++ {
			mp := be.rP.Mods[j]
			src := pP.Coeffs[j]
			y := ys[j]
			for k := 0; k < n; k++ {
				y[k] = nt.MulModShoup(src[k], be.poverpjInv[j], be.poverpjInvShoup[j], mp.Q)
			}
		}
	})
	par.For(l+1, par.Grain(K*n), func(start, end int) {
		for i := start; i < end; i++ {
			mq := be.rQ.Mods[i]
			qi := mq.Q
			dst := pQ.Coeffs[i]
			for k := 0; k < n; k++ {
				conv := uint64(0)
				for j := 0; j < K; j++ {
					conv = nt.Add(conv, nt.MulMod(ys[j][k], be.poverpjModQ[i][j], mq), qi)
				}
				dst[k] = nt.MulModShoup(nt.Sub(dst[k], conv, qi), be.pInvModQ[i], be.pInvModQShoup[i], qi)
			}
		}
	})
}
