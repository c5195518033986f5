package ring

import (
	"errors"
	"math/big"
	"sync"

	"antace/internal/nt"
	"antace/internal/par"
)

// DivRoundByLastModulus divides p (coefficient domain, level l) by its last
// modulus q_l with rounding, writing the level l-1 result into pOut.
// This is the CKKS rescale primitive. Rescaling at level 0 is a state
// error a caller can reach with exhausted ciphertexts, so it is reported
// rather than panicked.
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

// DivRoundByLastModulusNTT is DivRoundByLastModulus for polynomials in NTT
// domain: it INTTs only the last row, forms the per-modulus correction and
// NTTs it back, avoiding a full domain round trip.
func (r *Ring) DivRoundByLastModulusNTT(p, pOut *Poly) error {
	l := p.Level()
	if l == 0 {
		return errRescaleLevel0
	}
	n := r.N
	ql := r.Moduli[l]
	half := ql >> 1
	last := r.getBuf()
	defer r.putBuf(last)
	copy(last, p.Coeffs[l])
	r.inttRow(last, l)
	par.For(l, r.grainNTT, func(start, end int) {
		delta := r.getBuf()
		defer r.putBuf(delta)
		for i := start; i < end; i++ {
			qi := r.Moduli[i]
			mi := r.Mods[i]
			inv := r.rescaleQlInv[l][i]
			invShoup := r.rescaleQlInvShoup[l][i]
			for j := 0; j < n; j++ {
				xl := last[j]
				if xl > half {
					d := qi - nt.BRedAdd(ql-xl, mi)
					if d == qi {
						d = 0
					}
					delta[j] = d
				} else {
					delta[j] = nt.BRedAdd(xl, mi)
				}
			}
			r.nttRow(delta, i)
			a, b := p.Coeffs[i], pOut.Coeffs[i]
			for j := 0; j < n; j++ {
				b[j] = nt.MulModShoup(nt.Sub(a[j], delta[j], qi), inv, invShoup, qi)
			}
		}
	})
	pOut.Coeffs = pOut.Coeffs[:l]
	return nil
}

// errRescaleLevel0 is returned by both rescale primitives when the input
// has no modulus left to drop.
var errRescaleLevel0 = errors.New("ring: cannot rescale at level 0")

// ModulusAtLevel returns Q_l = prod_{i<=l} q_i as a big integer.
func (r *Ring) ModulusAtLevel(l int) *big.Int {
	q := big.NewInt(1)
	for i := 0; i <= l; i++ {
		q.Mul(q, new(big.Int).SetUint64(r.Moduli[i]))
	}
	return q
}

// BasisExtender converts polynomials between the RNS bases of two rings
// (typically Q and P) using the approximate (HPS) fast base conversion, and
// implements the ModDown operation of hybrid key switching.
type BasisExtender struct {
	rQ, rP *Ring

	// For each level l of Q: (Q_l/q_i)^-1 mod q_i and Q_l/q_i mod p_j.
	qoverqiInv      [][]uint64   // [l][i]
	qoverqiInvShoup [][]uint64   // [l][i]
	qoverqiModP     [][][]uint64 // [l][i][j]

	// P -> Q conversion: (P/p_j)^-1 mod p_j and P/p_j mod q_i, P mod q_i.
	poverpjInv      []uint64
	poverpjInvShoup []uint64
	poverpjModQ     [][]uint64 // [j][i]
	pInvModQ        []uint64   // P^-1 mod q_i
	pInvModQShoup   []uint64
	pModQ           []uint64 // P mod q_i

	// Gadget constants per digit span [start, end), built lazily on first
	// use: the spans are fixed by the key-switching digit layout, so each
	// table is computed once and ModUpDigitQP's hot path stays free of
	// big-integer arithmetic.
	mu        sync.Mutex
	digitTabs map[int]*digitTable
}

// digitTable caches, for one digit span with product D = prod d_t:
// the CRT weights (D/d_t)^-1 mod d_t and, for every output modulus m in
// Q ∪ P, the residues (D/d_t) mod m.
type digitTable struct {
	inv      []uint64   // [t]
	invShoup []uint64   // [t]
	overQ    [][]uint64 // [i][t] = (D/d_t) mod q_i
	overP    [][]uint64 // [j][t] = (D/d_t) mod p_j
}

func (be *BasisExtender) digitTableFor(start, end int) *digitTable {
	key := start<<16 | end
	be.mu.Lock()
	defer be.mu.Unlock()
	if dt, ok := be.digitTabs[key]; ok {
		return dt
	}
	L := len(be.rQ.Moduli)
	K := len(be.rP.Moduli)
	digitMods := be.rQ.Moduli[start:end]
	d := end - start
	D := big.NewInt(1)
	for _, q := range digitMods {
		D.Mul(D, new(big.Int).SetUint64(q))
	}
	dt := &digitTable{
		inv:      make([]uint64, d),
		invShoup: make([]uint64, d),
		overQ:    make([][]uint64, L),
		overP:    make([][]uint64, K),
	}
	for i := 0; i < L; i++ {
		dt.overQ[i] = make([]uint64, d)
	}
	for j := 0; j < K; j++ {
		dt.overP[j] = make([]uint64, d)
	}
	tmp := new(big.Int)
	for t, q := range digitMods {
		qi := new(big.Int).SetUint64(q)
		dit := new(big.Int).Quo(D, qi)
		inv := new(big.Int).ModInverse(tmp.Mod(dit, qi), qi).Uint64()
		dt.inv[t] = inv
		dt.invShoup[t] = nt.ShoupPrec(inv, q)
		for i := 0; i < L; i++ {
			dt.overQ[i][t] = tmp.Mod(dit, new(big.Int).SetUint64(be.rQ.Moduli[i])).Uint64()
		}
		for j := 0; j < K; j++ {
			dt.overP[j][t] = tmp.Mod(dit, new(big.Int).SetUint64(be.rP.Moduli[j])).Uint64()
		}
	}
	be.digitTabs[key] = dt
	return dt
}

// NewBasisExtender precomputes conversion tables between rQ and rP.
func NewBasisExtender(rQ, rP *Ring) *BasisExtender {
	be := &BasisExtender{rQ: rQ, rP: rP, digitTabs: make(map[int]*digitTable)}
	L := len(rQ.Moduli)
	K := len(rP.Moduli)

	be.qoverqiInv = make([][]uint64, L)
	be.qoverqiInvShoup = make([][]uint64, L)
	be.qoverqiModP = make([][][]uint64, L)
	for l := 0; l < L; l++ {
		Ql := rQ.ModulusAtLevel(l)
		be.qoverqiInv[l] = make([]uint64, l+1)
		be.qoverqiInvShoup[l] = make([]uint64, l+1)
		be.qoverqiModP[l] = make([][]uint64, l+1)
		for i := 0; i <= l; i++ {
			qi := new(big.Int).SetUint64(rQ.Moduli[i])
			qli := new(big.Int).Quo(Ql, qi)
			inv := new(big.Int).ModInverse(new(big.Int).Mod(qli, qi), qi)
			be.qoverqiInv[l][i] = inv.Uint64()
			be.qoverqiInvShoup[l][i] = nt.ShoupPrec(inv.Uint64(), rQ.Moduli[i])
			be.qoverqiModP[l][i] = make([]uint64, K)
			for j := 0; j < K; j++ {
				pj := new(big.Int).SetUint64(rP.Moduli[j])
				be.qoverqiModP[l][i][j] = new(big.Int).Mod(qli, pj).Uint64()
			}
		}
	}

	P := rP.ModulusAtLevel(K - 1)
	be.poverpjInv = make([]uint64, K)
	be.poverpjInvShoup = make([]uint64, K)
	be.poverpjModQ = make([][]uint64, K)
	for j := 0; j < K; j++ {
		pj := new(big.Int).SetUint64(rP.Moduli[j])
		ppj := new(big.Int).Quo(P, pj)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(ppj, pj), pj)
		be.poverpjInv[j] = inv.Uint64()
		be.poverpjInvShoup[j] = nt.ShoupPrec(inv.Uint64(), rP.Moduli[j])
		be.poverpjModQ[j] = make([]uint64, L)
		for i := 0; i < L; i++ {
			qi := new(big.Int).SetUint64(rQ.Moduli[i])
			be.poverpjModQ[j][i] = new(big.Int).Mod(ppj, qi).Uint64()
		}
	}
	be.pInvModQ = make([]uint64, L)
	be.pInvModQShoup = make([]uint64, L)
	be.pModQ = make([]uint64, L)
	for i := 0; i < L; i++ {
		qi := new(big.Int).SetUint64(rQ.Moduli[i])
		pModQi := new(big.Int).Mod(P, qi)
		be.pModQ[i] = pModQi.Uint64()
		inv := new(big.Int).ModInverse(pModQi, qi)
		be.pInvModQ[i] = inv.Uint64()
		be.pInvModQShoup[i] = nt.ShoupPrec(inv.Uint64(), rQ.Moduli[i])
	}
	return be
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
	defer func() {
		for _, y := range ys {
			be.rQ.putBuf(y)
		}
	}()
	for i := range ys {
		ys[i] = be.rQ.getBuf()
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
	defer func() {
		for _, y := range ys {
			be.rQ.putBuf(y)
		}
	}()
	for j := 0; j < K; j++ {
		ys[j] = be.rQ.getBuf()
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
					conv = nt.Add(conv, nt.MulMod(ys[j][k], be.poverpjModQ[j][i], mq), qi)
				}
				dst[k] = nt.MulModShoup(nt.Sub(dst[k], conv, qi), be.pInvModQ[i], be.pInvModQShoupAt(i), qi)
			}
		}
	})
}

func (be *BasisExtender) pInvModQShoupAt(i int) uint64 { return be.pInvModQShoup[i] }

// PModQ returns P mod q_i, used to pre-multiply before key switching.
func (be *BasisExtender) PModQ(i int) uint64 { return be.pModQ[i] }

// MulByP sets out = P·pQ over their common Q rows. With zero P rows
// beside it, that is pQ written over the basis Q∪P the way a key switch
// leaves its result before the division by P, so the two can be summed.
func (be *BasisExtender) MulByP(pQ, out *Poly) {
	r := be.rQ
	l := minLevel(pQ, out)
	par.For(l+1, r.grainPW, func(start, end int) {
		for i := start; i < end; i++ {
			q := r.Moduli[i]
			s := be.pModQ[i]
			sp := nt.ShoupPrec(s, q)
			a, b := pQ.Coeffs[i], out.Coeffs[i]
			for j := 0; j < r.N; j++ {
				b[j] = nt.MulModShoup(a[j], s, sp, q)
			}
		}
	})
}
