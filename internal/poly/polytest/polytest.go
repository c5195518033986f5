// Package polytest generates the polynomials the evaluation-plan tests of
// internal/poly and internal/ckks share.
package polytest

import (
	"math/rand/v2"

	"antace/internal/poly"
)

// Cases returns, for every degree 1…63 and both bases, a dense, an
// odd-only (odd degrees: the shape of the sign composite's stages) and a
// sparse polynomial, and a dense Chebyshev one on a non-unit interval.
// Coefficients are bounded so |p| <= 1 on the domain.
func Cases() []*poly.Polynomial {
	rng := rand.New(rand.NewPCG(20, 20))
	var out []*poly.Polynomial
	for deg := 1; deg <= 63; deg++ {
		for _, basis := range []poly.Basis{poly.Monomial, poly.Chebyshev} {
			for _, shape := range []string{"dense", "odd", "sparse", "interval"} {
				if (shape == "interval" && basis == poly.Monomial) || (shape == "odd" && deg%2 == 0) {
					continue
				}
				p := &poly.Polynomial{Coeffs: make([]float64, deg+1), Basis: basis, A: -1, B: 1}
				for i := range p.Coeffs {
					if (shape == "odd" && i%2 == 0) || (shape == "sparse" && i < deg && rng.IntN(4) != 0) {
						continue
					}
					p.Coeffs[i] = (rng.Float64() + 0.1) / float64(deg+1)
					if rng.IntN(2) == 0 {
						p.Coeffs[i] = -p.Coeffs[i]
					}
				}
				if shape == "interval" {
					p.A, p.B = -3, 5
				}
				out = append(out, p)
			}
		}
	}
	return out
}
