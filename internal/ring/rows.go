package ring

import (
	"math/bits"

	"antace/internal/nt"
)

// Straight-line row kernels behind InnerProduct and the base conversions
// of DecompModUpNTT and ModDownNTT (see fused.go). A row's digit sum is
// cut into batches of at most fusedDigitBatch terms, one reduction per
// coefficient per batch; a batch runs as fixed-width passes of at most
// fusedWidth terms, each a loop over the coefficients with its digit
// rows hoisted and resliced to N, so the 128-bit (hi, lo) accumulator
// lives in registers and the loop body has no inner loop and no bounds
// checks. A pass that is not the batch's last leaves its sums unreduced
// in two scratch rows (hi, lo); the next pass starts from them. Every
// pass starts from a pair of rows (hin, lin): the ring's zero row for a
// fresh sum, (zero, dst) to continue a reduced one, the scratch pair to
// continue an unreduced one.

// fusedWidth is the widest fixed-width pass. A batch of 5 to 8 terms
// runs as a 4-term pass into the scratch rows plus one of 1 to 4.
const fusedWidth = 4

// rowTerms holds one pass's hoisted digit rows.
type rowTerms [fusedWidth][]uint64

// innerProductRows computes the digit inner product for rows
// [start, end); acc carries out's incoming (reduced) value into the
// first batch, and a non-nil idx gathers the as rows through it.
func (r *Ring) innerProductRows(as []*Poly, idx []int, bs []*Poly, out *Poly, acc bool, start, end int) {
	n := r.N
	D := len(as)
	hiS, loS := r.getScratch(D)
	defer r.putScratch(hiS, loS)
	var a, b rowTerms
	for i := start; i < end; i++ {
		m := r.Mods[i]
		dst := out.Coeffs[i][:n]
		if D == 0 {
			if !acc {
				clear(dst)
			}
			continue
		}
		for g := 0; g < D; g += fusedDigitBatch {
			ge := min(g+fusedDigitBatch, D)
			hin, lin := r.zero, r.zero
			if acc || g > 0 {
				lin = dst
			}
			for c := g; c < ge; c += fusedWidth {
				w := min(ge-c, fusedWidth)
				for d := 0; d < w; d++ {
					a[d], b[d] = as[c+d].Coeffs[i], bs[c+d].Coeffs[i]
				}
				var hout, lout []uint64
				if c+w < ge {
					hout, lout = hiS, loS
				}
				if idx != nil {
					mulAddGather(w, idx, &a, &b, hin, lin, dst, hout, lout, m)
				} else {
					mulAddRows(w, &a, &b, hin, lin, dst, hout, lout, m)
				}
				hin, lin = hiS, loS
			}
		}
	}
}

// getScratch returns the two scratch rows a sum of D terms needs (none
// when one pass holds it); putScratch hands them back.
func (r *Ring) getScratch(D int) (hi, lo []uint64) {
	if D <= fusedWidth {
		return nil, nil
	}
	return r.getBuf(), r.getBuf()
}

func (r *Ring) putScratch(hi, lo []uint64) {
	if hi != nil {
		r.putBuf(hi)
		r.putBuf(lo)
	}
}

// convertRow writes dst[k] = sum_i ys[i][k] * over[i] mod m, the lazy
// RNS base conversion of one output row, in the scratch rows hiS, loS
// from r.getScratch(len(over)).
func (r *Ring) convertRow(ys [][]uint64, m nt.Modulus, over, dst, hiS, loS []uint64) {
	D := len(over)
	var y rowTerms
	var o [fusedWidth]uint64
	for g := 0; g < D; g += fusedDigitBatch {
		ge := min(g+fusedDigitBatch, D)
		hin, lin := r.zero, r.zero
		if g > 0 {
			lin = dst
		}
		for c := g; c < ge; c += fusedWidth {
			w := min(ge-c, fusedWidth)
			copy(y[:w], ys[c:c+w])
			copy(o[:w], over[c:c+w])
			var hout, lout []uint64
			if c+w < ge {
				hout, lout = hiS, loS
			}
			scaleAddRows(w, &y, &o, hin, lin, dst, hout, lout, m)
			hin, lin = hiS, loS
		}
	}
}

// mulAddRows runs one w-term pass of sum_d a[d][k] * b[d][k]. Only a
// full-width pass can be followed by another, so only w = fusedWidth
// ever stores unreduced (hout non-nil).
func mulAddRows(w int, a, b *rowTerms, hin, lin, dst, hout, lout []uint64, m nt.Modulus) {
	n := len(dst)
	rm := newRowModulus(m)
	hin, lin = hin[:n], lin[:n]
	switch w {
	case 1:
		a0, b0 := a[0][:n], b[0][:n]
		for k := range dst {
			hi, lo := nt.MulAdd128(a0[k], b0[k], hin[k], lin[k])
			dst[k] = rm.reduce(hi, lo)
		}
	case 2:
		a0, a1, b0, b1 := a[0][:n], a[1][:n], b[0][:n], b[1][:n]
		for k := range dst {
			hi, lo := nt.MulAdd128(a0[k], b0[k], hin[k], lin[k])
			hi, lo = nt.MulAdd128(a1[k], b1[k], hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	case 3:
		a0, a1, a2, b0, b1, b2 := a[0][:n], a[1][:n], a[2][:n], b[0][:n], b[1][:n], b[2][:n]
		for k := range dst {
			hi, lo := nt.MulAdd128(a0[k], b0[k], hin[k], lin[k])
			hi, lo = nt.MulAdd128(a1[k], b1[k], hi, lo)
			hi, lo = nt.MulAdd128(a2[k], b2[k], hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	case 4:
		a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
		b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
		if hout != nil {
			hout, lout = hout[:n], lout[:n]
			for k := range dst {
				hi, lo := nt.MulAdd128(a0[k], b0[k], hin[k], lin[k])
				hi, lo = nt.MulAdd128(a1[k], b1[k], hi, lo)
				hi, lo = nt.MulAdd128(a2[k], b2[k], hi, lo)
				hout[k], lout[k] = nt.MulAdd128(a3[k], b3[k], hi, lo)
			}
			return
		}
		for k := range dst {
			hi, lo := nt.MulAdd128(a0[k], b0[k], hin[k], lin[k])
			hi, lo = nt.MulAdd128(a1[k], b1[k], hi, lo)
			hi, lo = nt.MulAdd128(a2[k], b2[k], hi, lo)
			hi, lo = nt.MulAdd128(a3[k], b3[k], hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	}
}

// mulAddGather is mulAddRows with every a row read through idx:
// sum_d a[d][idx[k]] * b[d][k].
func mulAddGather(w int, idx []int, a, b *rowTerms, hin, lin, dst, hout, lout []uint64, m nt.Modulus) {
	n := len(dst)
	rm := newRowModulus(m)
	ix, hin, lin := idx[:n], hin[:n], lin[:n]
	switch w {
	case 1:
		a0, b0 := a[0], b[0][:n]
		for k, j := range ix {
			hi, lo := nt.MulAdd128(a0[j], b0[k], hin[k], lin[k])
			dst[k] = rm.reduce(hi, lo)
		}
	case 2:
		a0, a1, b0, b1 := a[0], a[1], b[0][:n], b[1][:n]
		for k, j := range ix {
			hi, lo := nt.MulAdd128(a0[j], b0[k], hin[k], lin[k])
			hi, lo = nt.MulAdd128(a1[j], b1[k], hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	case 3:
		a0, a1, a2, b0, b1, b2 := a[0], a[1], a[2], b[0][:n], b[1][:n], b[2][:n]
		for k, j := range ix {
			hi, lo := nt.MulAdd128(a0[j], b0[k], hin[k], lin[k])
			hi, lo = nt.MulAdd128(a1[j], b1[k], hi, lo)
			hi, lo = nt.MulAdd128(a2[j], b2[k], hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	case 4:
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
		if hout != nil {
			hout, lout = hout[:n], lout[:n]
			for k, j := range ix {
				hi, lo := nt.MulAdd128(a0[j], b0[k], hin[k], lin[k])
				hi, lo = nt.MulAdd128(a1[j], b1[k], hi, lo)
				hi, lo = nt.MulAdd128(a2[j], b2[k], hi, lo)
				hout[k], lout[k] = nt.MulAdd128(a3[j], b3[k], hi, lo)
			}
			return
		}
		for k, j := range ix {
			hi, lo := nt.MulAdd128(a0[j], b0[k], hin[k], lin[k])
			hi, lo = nt.MulAdd128(a1[j], b1[k], hi, lo)
			hi, lo = nt.MulAdd128(a2[j], b2[k], hi, lo)
			hi, lo = nt.MulAdd128(a3[j], b3[k], hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	}
}

// scaleAddRows runs one w-term pass of sum_d y[d][k] * o[d], the base
// conversion's weighted row sum.
func scaleAddRows(w int, y *rowTerms, o *[fusedWidth]uint64, hin, lin, dst, hout, lout []uint64, m nt.Modulus) {
	n := len(dst)
	rm := newRowModulus(m)
	hin, lin = hin[:n], lin[:n]
	switch w {
	case 1:
		y0, o0 := y[0][:n], o[0]
		for k := range dst {
			hi, lo := nt.MulAdd128(y0[k], o0, hin[k], lin[k])
			dst[k] = rm.reduce(hi, lo)
		}
	case 2:
		y0, y1, o0, o1 := y[0][:n], y[1][:n], o[0], o[1]
		for k := range dst {
			hi, lo := nt.MulAdd128(y0[k], o0, hin[k], lin[k])
			hi, lo = nt.MulAdd128(y1[k], o1, hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	case 3:
		y0, y1, y2, o0, o1, o2 := y[0][:n], y[1][:n], y[2][:n], o[0], o[1], o[2]
		for k := range dst {
			hi, lo := nt.MulAdd128(y0[k], o0, hin[k], lin[k])
			hi, lo = nt.MulAdd128(y1[k], o1, hi, lo)
			hi, lo = nt.MulAdd128(y2[k], o2, hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	case 4:
		y0, y1, y2, y3 := y[0][:n], y[1][:n], y[2][:n], y[3][:n]
		o0, o1, o2, o3 := o[0], o[1], o[2], o[3]
		if hout != nil {
			hout, lout = hout[:n], lout[:n]
			for k := range dst {
				hi, lo := nt.MulAdd128(y0[k], o0, hin[k], lin[k])
				hi, lo = nt.MulAdd128(y1[k], o1, hi, lo)
				hi, lo = nt.MulAdd128(y2[k], o2, hi, lo)
				hout[k], lout[k] = nt.MulAdd128(y3[k], o3, hi, lo)
			}
			return
		}
		for k := range dst {
			hi, lo := nt.MulAdd128(y0[k], o0, hin[k], lin[k])
			hi, lo = nt.MulAdd128(y1[k], o1, hi, lo)
			hi, lo = nt.MulAdd128(y2[k], o2, hi, lo)
			hi, lo = nt.MulAdd128(y3[k], o3, hi, lo)
			dst[k] = rm.reduce(hi, lo)
		}
	}
}

// rowModulus is a row-local exact reduction of 128-bit sums, small
// enough to inline into the kernels' loops (nt.Red128 is not): x =
// hi·2^64 + lo is hi·(2^64 mod q), a lazy Shoup product in [0, 2q),
// plus lo less a one-word Barrett quotient, also in [0, 2q); two
// conditional subtractions finish the sum (< 4q < 2^64).
type rowModulus struct{ q, twoQ, c, cShoup, b uint64 }

func newRowModulus(m nt.Modulus) rowModulus {
	q, b := m.Q, m.BRC[0] // BRC[0] = floor(2^64 / q)
	c := -(b * q)         // 2^64 mod q
	return rowModulus{q: q, twoQ: 2 * q, c: c, cShoup: nt.ShoupPrec(c, q), b: b}
}

func (rm *rowModulus) reduce(hi, lo uint64) uint64 {
	t, _ := bits.Mul64(hi, rm.cShoup)
	u, _ := bits.Mul64(lo, rm.b)
	x := hi*rm.c - t*rm.q + lo - u*rm.q
	if x >= rm.twoQ {
		x -= rm.twoQ
	}
	if x >= rm.q {
		x -= rm.q
	}
	return x
}
