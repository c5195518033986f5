package ring

import (
	"errors"
	"math/big"
	"sync"

	"antace/internal/nt"
	"antace/internal/par"
)

// DivRoundByLastModulusNTT divides p (NTT domain, level l) by its last
// modulus q_l with rounding, writing the level l-1 result into pOut. This
// is the CKKS rescale primitive. It INTTs only the last row, forms the
// per-modulus correction and NTTs it back, avoiding a full domain round
// trip. Rescaling at level 0 is a state error a caller can reach with
// exhausted ciphertexts, so it is reported rather than panicked.
func (r *Ring) DivRoundByLastModulusNTT(p, pOut *Poly) error {
	l := p.Level()
	if l == 0 {
		return errRescaleLevel0
	}
	n := r.N
	ql := r.Moduli[l]
	half := ql >> 1
	lastP := r.getBuf()
	defer r.putBuf(lastP)
	last := *lastP
	copy(last, p.Coeffs[l])
	r.inttRow(last, l)
	par.For(l, r.grainNTT, func(start, end int) {
		deltaP := r.getBuf()
		defer r.putBuf(deltaP)
		delta := *deltaP
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

// errRescaleLevel0 is returned when a rescale's input has no modulus left
// to drop.
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
	poverpjModQ     [][]uint64 // [i][j]
	pInvModQ        []uint64   // P^-1 mod q_i
	pInvModQShoup   []uint64
	pModQ           []uint64 // P mod q_i

	// Gadget constants per digit span [start, end), built lazily on first
	// use: the spans are fixed by the key-switching digit layout, so each
	// table is computed once and DecompModUpNTT's hot path stays free of
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
	be.poverpjModQ = make([][]uint64, L)
	for i := range be.poverpjModQ {
		be.poverpjModQ[i] = make([]uint64, K)
	}
	for j := 0; j < K; j++ {
		pj := new(big.Int).SetUint64(rP.Moduli[j])
		ppj := new(big.Int).Quo(P, pj)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(ppj, pj), pj)
		be.poverpjInv[j] = inv.Uint64()
		be.poverpjInvShoup[j] = nt.ShoupPrec(inv.Uint64(), rP.Moduli[j])
		for i := 0; i < L; i++ {
			qi := new(big.Int).SetUint64(rQ.Moduli[i])
			be.poverpjModQ[i][j] = new(big.Int).Mod(ppj, qi).Uint64()
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
