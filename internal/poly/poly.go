// Package poly provides plaintext polynomial machinery for approximating
// the nonlinear functions of neural networks under CKKS: monomial and
// Chebyshev-basis polynomials, Chebyshev interpolation, the Remez exchange
// algorithm for minimax approximation, and the composite sign polynomials
// (Cheon et al. / Lee et al. style) used to realise ReLU homomorphically.
package poly

import (
	"fmt"
	"math"
)

// Basis identifies the representation of a Polynomial's coefficients.
type Basis int

const (
	// Monomial coefficients: p(x) = sum c_i x^i.
	Monomial Basis = iota
	// Chebyshev coefficients over [A,B]: p(x) = sum c_i T_i(u),
	// u = (2x-(A+B))/(B-A).
	Chebyshev
)

// Polynomial is a univariate polynomial in either basis. For the
// Chebyshev basis, A and B give the interpolation interval.
type Polynomial struct {
	Coeffs []float64
	Basis  Basis
	A, B   float64
}

// Degree returns the degree (index of the last nonzero coefficient).
func (p *Polynomial) Degree() int {
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		if p.Coeffs[i] != 0 {
			return i
		}
	}
	return 0
}

// Depth returns the multiplicative depth of p, ceil(log2(degree+1)): what
// its evaluation plan consumes on [-1,1] (Plan.Depth adds the level of a
// Chebyshev interval's affine map).
func (p *Polynomial) Depth() int {
	d := p.Degree()
	depth := 0
	for (1 << depth) < d+1 {
		depth++
	}
	return depth
}

// Affine reports whether evaluating p first maps its input onto [-1,1]:
// a Chebyshev polynomial over another interval, which takes one level.
func (p *Polynomial) Affine() bool { return p.Basis == Chebyshev && (p.A != -1 || p.B != 1) }

// Eval evaluates p at x in plaintext (reference implementation).
func (p *Polynomial) Eval(x float64) float64 {
	switch p.Basis {
	case Monomial:
		// Horner.
		acc := 0.0
		for i := len(p.Coeffs) - 1; i >= 0; i-- {
			acc = acc*x + p.Coeffs[i]
		}
		return acc
	case Chebyshev:
		u := x
		if p.A != -1 || p.B != 1 {
			u = (2*x - (p.A + p.B)) / (p.B - p.A)
		}
		// Clenshaw recurrence.
		var b1, b2 float64
		for i := len(p.Coeffs) - 1; i >= 1; i-- {
			b1, b2 = 2*u*b1-b2+p.Coeffs[i], b1
		}
		return u*b1 - b2 + p.Coeffs[0]
	}
	panic("poly: unknown basis")
}

// NewMonomial builds a monomial-basis polynomial from coefficients
// (constant first).
func NewMonomial(coeffs ...float64) *Polynomial {
	return &Polynomial{Coeffs: append([]float64(nil), coeffs...), Basis: Monomial, A: -1, B: 1}
}

// FromAttrs decodes the polynomial a poly instruction (sihe.poly,
// ckks.poly) carries in its attributes: "coeffs", plus, for the Chebyshev
// basis, "basis" = "cheb" and the interval "a", "b" (default [-1,1]).
// Every reader of that encoding goes through here; Attrs writes it.
func FromAttrs(attrs map[string]any) (*Polynomial, error) {
	coeffs, ok := attrs["coeffs"].([]float64)
	if !ok || len(coeffs) == 0 {
		return nil, fmt.Errorf("poly: coeffs attribute is not a non-empty float vector")
	}
	p := &Polynomial{Coeffs: coeffs, A: -1, B: 1}
	switch basis, _ := attrs["basis"].(string); basis {
	case "":
	case "cheb":
		p.Basis = Chebyshev
		if a, ok := attrs["a"].(float64); ok {
			p.A = a
		}
		if b, ok := attrs["b"].(float64); ok {
			p.B = b
		}
	default:
		return nil, fmt.Errorf("poly: unknown basis %q", basis)
	}
	return p, nil
}

// Attrs encodes p as instruction attributes, the inverse of FromAttrs.
func (p *Polynomial) Attrs() map[string]any {
	attrs := map[string]any{"coeffs": p.Coeffs}
	if p.Basis == Chebyshev {
		attrs["basis"], attrs["a"], attrs["b"] = "cheb", p.A, p.B
	}
	return attrs
}

// ChebyshevInterpolate approximates f on [a,b] with a degree-d polynomial
// in Chebyshev basis using Chebyshev-node interpolation (near-minimax).
func ChebyshevInterpolate(f func(float64) float64, a, b float64, degree int) *Polynomial {
	n := degree + 1
	nodes := make([]float64, n)
	vals := make([]float64, n)
	for k := 0; k < n; k++ {
		u := math.Cos(math.Pi * (float64(k) + 0.5) / float64(n))
		nodes[k] = u
		x := 0.5*(b-a)*u + 0.5*(a+b)
		vals[k] = f(x)
	}
	coeffs := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += vals[k] * math.Cos(math.Pi*float64(j)*(float64(k)+0.5)/float64(n))
		}
		c := 2 * sum / float64(n)
		if j == 0 {
			c /= 2
		}
		coeffs[j] = c
	}
	return &Polynomial{Coeffs: coeffs, Basis: Chebyshev, A: a, B: b}
}

// MaxError returns the maximum |p(x)-f(x)| over a dense grid on [a,b].
func MaxError(p *Polynomial, f func(float64) float64, a, b float64, samples int) float64 {
	m := 0.0
	for i := 0; i <= samples; i++ {
		x := a + (b-a)*float64(i)/float64(samples)
		if e := math.Abs(p.Eval(x) - f(x)); e > m {
			m = e
		}
	}
	return m
}

// ToMonomial converts a Chebyshev-basis polynomial on [-1,1] to monomial
// basis. Only valid for A=-1, B=1 (use Compose/affine mapping otherwise).
// Numerically safe only for modest degrees (< ~30).
func (p *Polynomial) ToMonomial() (*Polynomial, error) {
	if p.Basis == Monomial {
		return p, nil
	}
	if p.A != -1 || p.B != 1 {
		return nil, fmt.Errorf("poly: ToMonomial requires the interval [-1,1], have [%g,%g]", p.A, p.B)
	}
	n := len(p.Coeffs)
	// T polynomials in monomial basis, built by recurrence.
	tPrev := []float64{1}
	tCur := []float64{0, 1}
	out := make([]float64, n)
	addScaled := func(dst []float64, src []float64, c float64) {
		for i, v := range src {
			dst[i] += c * v
		}
	}
	addScaled(out, tPrev, p.Coeffs[0])
	if n > 1 {
		addScaled(out, tCur, p.Coeffs[1])
	}
	for k := 2; k < n; k++ {
		// T_k = 2x T_{k-1} - T_{k-2}
		tNext := make([]float64, k+1)
		for i, v := range tCur {
			tNext[i+1] += 2 * v
		}
		for i, v := range tPrev {
			tNext[i] -= v
		}
		addScaled(out, tNext, p.Coeffs[k])
		tPrev, tCur = tCur, tNext
	}
	return &Polynomial{Coeffs: out, Basis: Monomial, A: -1, B: 1}, nil
}

// IsOdd reports whether all even-index coefficients are (near) zero.
func (p *Polynomial) IsOdd() bool {
	for i := 0; i < len(p.Coeffs); i += 2 {
		if math.Abs(p.Coeffs[i]) > 1e-12 {
			return false
		}
	}
	return true
}
