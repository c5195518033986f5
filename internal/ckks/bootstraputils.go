package ckks

import "antace/internal/par"

// ModRaise re-interprets a level-0 ciphertext modulo the larger modulus
// Q_toLevel: decryption afterwards yields t = m + q0*I(X) for a small
// integer polynomial I. The declared scale is preserved.
func (ev *Evaluator) ModRaise(ct *Ciphertext, toLevel int) *Ciphertext {
	rQ := ev.params.RingQ()
	if ct.Level() != 0 {
		panic("ckks: ModRaise expects a level-0 ciphertext")
	}
	q0 := rQ.Moduli[0]
	out := NewCiphertext(ev.params, ct.Degree(), toLevel)
	out.Scale = ct.Scale
	for i := range ct.Value {
		c := rQ.GetPolyNoZero(0)
		ct.Value[i].Copy(c)
		rQ.INTT(c, c)
		row0 := c.Coeffs[0]
		dstPoly := out.Value[i]
		par.For(toLevel+1, par.Grain(rQ.N), func(start, end int) {
			for l := start; l < end; l++ {
				ql := rQ.Moduli[l]
				dst := dstPoly.Coeffs[l]
				for j := range row0 {
					v := row0[j]
					if v > q0/2 {
						// Centered lift: v - q0 (negative).
						dst[j] = ql - (q0-v)%ql
						if dst[j] == ql {
							dst[j] = 0
						}
					} else {
						dst[j] = v % ql
					}
				}
			}
		})
		rQ.PutPoly(c)
		rQ.NTT(dstPoly, dstPoly)
	}
	return out
}
