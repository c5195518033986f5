package poly

import (
	"fmt"
	"math"
	"sync"
)

// Homomorphic ReLU needs sign(x), approximated on [-1,1]\(-eps,eps) by a
// composition of low-degree odd polynomials (Cheon et al., as used by Lee
// et al. [36]). This file builds such compositions without hard-coded
// constants: "accelerator" stages are produced by our own Remez solver
// (an odd minimax sign approximation via q(t) ~ 1/sqrt(t)), and
// "flattening" stages use the closed-form family
//
//	f_n(x) = sum_{i=0}^n (1/4^i) C(2i,i) x (1-x^2)^i,
//
// which maps [-1,1] into [-1,1] and converges to sign under composition.

// binom returns the binomial coefficient C(n,k) as float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// FN returns the degree-(2n+1) flattening polynomial f_n in monomial
// basis.
func FN(n int) *Polynomial {
	coeffs := make([]float64, 2*n+2)
	for i := 0; i <= n; i++ {
		c := binom(2*i, i) / math.Pow(4, float64(i))
		// x(1-x^2)^i = sum_j C(i,j) (-1)^j x^(2j+1)
		for j := 0; j <= i; j++ {
			coeffs[2*j+1] += c * binom(i, j) * math.Pow(-1, float64(j))
		}
	}
	return NewMonomial(coeffs...)
}

// MinimaxSignStage returns an odd polynomial of degree 2*halfDegree+1
// approximating sign on [eps,1] (and by oddness on [-1,-eps]), built as
// x*q(x^2) with q the Remez minimax approximation of 1/sqrt(t) on
// [eps^2, 1].
//
// Caution: inside the gap (|x| < eps) the stage can greatly exceed 1, so
// it must not be composed with polynomials that diverge outside [-1,1]
// unless the caller guarantees no inputs fall in the gap. SignComposite
// therefore uses only the f_n family, which maps [-1,1] into itself.
func MinimaxSignStage(eps float64, halfDegree int) (*Polynomial, error) {
	q, _, err := Remez(func(t float64) float64 { return 1 / math.Sqrt(t) }, eps*eps, 1, halfDegree, 30)
	if err != nil {
		return nil, err
	}
	qm, err := chebToMonomialOn(q)
	if err != nil {
		return nil, err
	}
	// p(x) = x * qm(x^2)
	coeffs := make([]float64, 2*len(qm.Coeffs))
	for i, c := range qm.Coeffs {
		coeffs[2*i+1] = c
	}
	return NewMonomial(coeffs...), nil
}

// chebToMonomialOn converts a Chebyshev polynomial on [a,b] to monomial
// basis by composing with the affine map.
func chebToMonomialOn(p *Polynomial) (*Polynomial, error) {
	if p.Basis == Monomial {
		return p, nil
	}
	unit := &Polynomial{Coeffs: p.Coeffs, Basis: Chebyshev, A: -1, B: 1}
	mono, err := unit.ToMonomial()
	if err != nil {
		return nil, err
	}
	// Substitute u = alpha*x + beta.
	alpha := 2 / (p.B - p.A)
	beta := -(p.A + p.B) / (p.B - p.A)
	return mono.ComposeAffine(alpha, beta), nil
}

// ComposeAffine returns p(alpha*x + beta) in monomial basis.
func (p *Polynomial) ComposeAffine(alpha, beta float64) *Polynomial {
	if p.Basis != Monomial {
		panic("poly: ComposeAffine requires monomial basis")
	}
	n := len(p.Coeffs)
	out := make([]float64, n)
	// Horner on polynomial coefficients: repeatedly multiply by
	// (alpha x + beta) and add the next coefficient.
	cur := make([]float64, 1, n)
	cur[0] = p.Coeffs[n-1]
	for i := n - 2; i >= 0; i-- {
		next := make([]float64, len(cur)+1)
		for j, c := range cur {
			next[j+1] += alpha * c
			next[j] += beta * c
		}
		next[0] += p.Coeffs[i]
		cur = next
	}
	copy(out, cur)
	return &Polynomial{Coeffs: out, Basis: Monomial, A: -1, B: 1}
}

// SignComposite builds a composition approximating sign(x) to within
// 2^-alpha on [-1,1] \ (-eps, eps). The returned stages are applied left
// to right, and every stage maps [-1,1] into itself, so inputs falling
// inside the gap (where the sign is undefined) can never overflow the
// CKKS message bound.
//
// The composition opens with a minimax "accelerator" stage (degree 15,
// normalised so that max |p| <= 1 over the whole of [-1,1]), which
// expands the gap by roughly an order of magnitude in a single stage —
// the depth saving of the minimax composite method of Lee et al. [36]
// relative to pure f_n iteration. f_3 flattening stages follow until a
// dense grid check certifies the target accuracy.
//
// The search runs once per (eps, alpha); every call returns its own copy
// of the stages.
func SignComposite(eps float64, alpha int) ([]*Polynomial, error) {
	key := signKey{eps, alpha}
	e, ok := signComposites.Load(key)
	if !ok {
		var r signResult
		r.stages, r.err = searchSignComposite(eps, alpha)
		e, _ = signComposites.LoadOrStore(key, r)
	}
	r := e.(signResult)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]*Polynomial, len(r.stages))
	for i, st := range r.stages {
		cp := *st
		cp.Coeffs = append([]float64(nil), st.Coeffs...)
		out[i] = &cp
	}
	return out, nil
}

// signComposites memoises SignComposite's search by (eps, alpha): every
// ReLU of every compile asks for the composite of its profile.
var signComposites sync.Map

type signKey struct {
	eps   float64
	alpha int
}

type signResult struct {
	stages []*Polynomial
	err    error
}

func searchSignComposite(eps float64, alpha int) ([]*Polynomial, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("poly: eps %g out of (0,1)", eps)
	}
	const flattenN = 3 // degree-7 stages: depth 3 each
	fn := FN(flattenN)
	var stages []*Polynomial
	target := math.Exp2(-float64(alpha))
	// Amplify the gap with cheap f_3 stages until it reaches ~0.5.
	cur := eps
	for cur < 0.5 && len(stages) < 32 {
		stages = append(stages, fn)
		cur = fn.Eval(cur)
	}
	// Flatten with safe minimax stages (degree 15): each typically gains
	// 8+ bits in a single depth-4 stage.
	for iter := 0; iter < 8; iter++ {
		if signCompositeError(stages, eps) <= target {
			return stages, nil
		}
		st, newEps, err := safeMinimaxStage(cur)
		if err != nil || newEps <= cur {
			stages = append(stages, fn)
			cur = fn.Eval(cur)
			continue
		}
		stages = append(stages, st)
		cur = newEps
	}
	// Final fallback: keep flattening with f_3.
	for iter := 0; iter < 32; iter++ {
		if signCompositeError(stages, eps) <= target {
			return stages, nil
		}
		stages = append(stages, fn)
	}
	return nil, fmt.Errorf("poly: sign composition did not reach 2^-%d on eps=%g", alpha, eps)
}

// safeMinimaxStage builds a degree-15 minimax sign stage normalised to
// map all of [-1,1] into [-1,1] (checked on a dense grid, including the
// gap), returning the stage and the gap it guarantees.
func safeMinimaxStage(eps float64) (*Polynomial, float64, error) {
	st, err := MinimaxSignStage(eps, 7)
	if err != nil {
		return nil, 0, err
	}
	_, m := rangeOn(st, 0, 1) // odd: max of |p| over [-1,1] = max over [0,1]
	if m > 1 {
		inv := 1 / m
		for i := range st.Coeffs {
			st.Coeffs[i] *= inv
		}
	}
	lo, hi := rangeOn(st, eps, 1)
	if hi > 1+1e-9 {
		return nil, 0, fmt.Errorf("poly: accelerator normalisation failed (hi=%g)", hi)
	}
	if lo <= eps {
		return nil, 0, fmt.Errorf("poly: accelerator did not expand the gap")
	}
	return st, lo, nil
}

// rangeOn returns the min and max of p over [a,b] on a dense grid.
func rangeOn(p *Polynomial, a, b float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	const grid = 4096
	for i := 0; i <= grid; i++ {
		x := a + (b-a)*float64(i)/float64(grid)
		v := p.Eval(x)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// EvalComposite evaluates a stage list at x.
func EvalComposite(stages []*Polynomial, x float64) float64 {
	for _, st := range stages {
		x = st.Eval(x)
	}
	return x
}

// signCompositeError measures max |comp(x) - 1| over [eps, 1] (by
// symmetry this bounds the error on both sides).
func signCompositeError(stages []*Polynomial, eps float64) float64 {
	const grid = 2048
	worst := 0.0
	for i := 0; i <= grid; i++ {
		x := eps + (1-eps)*float64(i)/float64(grid)
		if e := math.Abs(EvalComposite(stages, x) - 1); e > worst {
			worst = e
		}
	}
	return worst
}

// CompositeDepth returns the total multiplicative depth of a stage list.
func CompositeDepth(stages []*Polynomial) int {
	d := 0
	for _, st := range stages {
		d += st.Depth()
	}
	return d
}

// ReLUFromSign returns the multiplicative depth consumed by evaluating
// relu(x) = 0.5*x*(1+sign(x)) given a sign composition: the stages plus
// the final product with x.
func ReLUFromSign(stages []*Polynomial) int {
	return CompositeDepth(stages) + 1
}
