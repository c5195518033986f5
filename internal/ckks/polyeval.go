package ckks

import (
	"fmt"

	"antace/internal/poly"
)

// EvaluatePolynomial executes the evaluation plan of a polynomial on ct.
// The result has exactly the scale targetScale (pass 0 for the parameter
// default) and sits pl.Depth() levels below ct; the plan says which
// products are formed, where, and which sums are relinearised.
//
// Scales are exact by construction: a node is asked for the scale its sum
// must carry before its rescale, and asks each quotient for the scale that
// makes the product with its giant step land there, so no sum ever adds
// operands whose scales differ.
func (ev *Evaluator) EvaluatePolynomial(ct *Ciphertext, pl *poly.Plan, targetScale float64) (*Ciphertext, error) {
	if targetScale == 0 {
		targetScale = ev.params.DefaultScale()
	}
	if ct.Level() < pl.Depth() {
		return nil, fmt.Errorf("ckks: degree-%d polynomial needs %d levels, ciphertext has %d", pl.Poly.Degree(), pl.Depth(), ct.Level())
	}
	if pl.Root == nil {
		// A constant: c0 on a zeroed copy of ct at the right scale.
		out := ev.MulByConst(ct, 0, 1)
		out.Scale = targetScale
		return ev.AddConst(out, pl.Poly.Coeffs[0]), nil
	}
	moduli := ev.params.RingQ().Moduli
	x := ct
	if pl.Affine {
		// u = (2x - (A+B)) / (B-A), landing exactly on the default scale.
		p := pl.Poly
		cs := ev.params.DefaultScale() * float64(moduli[ct.Level()]) / ct.Scale
		rs, err := ev.Rescale(ev.MulByConst(ct, 2/(p.B-p.A), cs))
		if err != nil {
			return nil, err
		}
		rs.Scale = ev.params.DefaultScale()
		x = ev.AddConst(rs, -(p.A+p.B)/(p.B-p.A))
	}
	pe := &planEval{ev: ev, moduli: moduli, chebyshev: pl.Poly.Basis == poly.Chebyshev, level: x.Level(), powers: map[int]*Ciphertext{1: x}}
	for _, pw := range pl.Powers {
		if err := pe.genPower(pw); err != nil {
			return nil, err
		}
	}
	res, err := pe.node(pl.Root, targetScale*float64(moduli[pe.level-pl.Root.Depth]))
	if err != nil {
		return nil, err
	}
	if res, err = pe.finish(res); err != nil {
		return nil, err
	}
	res.Scale = targetScale
	return res, nil
}

// planEval is one execution of a plan: the level of the (mapped) input
// and the powers formed so far.
type planEval struct {
	ev        *Evaluator
	moduli    []uint64 // the chain's primes, by level
	chebyshev bool
	level     int
	powers    map[int]*Ciphertext
}

// power returns X_i as seen from the given level: the limbs above it are
// left out, nothing is copied (the evaluator never writes to an operand).
func (pe *planEval) power(i, level int) *Ciphertext {
	return levelView(pe.powers[i], level)
}

// finish ends a sum: one relinearisation if it holds products, and the
// rescale.
func (pe *planEval) finish(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() == 2 {
		var err error
		if ct, err = pe.ev.Relinearize(ct); err != nil {
			return nil, err
		}
	}
	return pe.ev.Rescale(ct)
}

// genPower forms X_Index = X_A·X_B, or T_Index = 2·T_A·T_B − T_{A−B}, at
// the level of its deeper operand X_A.
func (pe *planEval) genPower(pw poly.Power) error {
	ev := pe.ev
	level := pe.level - poly.PowerDepth(pw.A)
	prod, err := ev.Mul(pe.powers[pw.A], pe.power(pw.B, level))
	if err != nil {
		return err
	}
	if pe.chebyshev {
		if prod, err = ev.Add(prod, prod); err != nil {
			return err
		}
		if pw.A == pw.B {
			prod = ev.AddConst(prod, -1)
		} else {
			// T_{A−B} comes up to the product's scale by a constant
			// multiplication that costs no level.
			tc := pe.power(pw.A-pw.B, level)
			adj := ev.MulByConst(tc, 1, prod.Scale/tc.Scale)
			adj.Scale = prod.Scale
			if prod, err = ev.Sub(prod, adj); err != nil {
				return err
			}
		}
	}
	pe.powers[pw.Index], err = pe.finish(prod)
	return err
}

// node forms the sum of n at its level, carrying exactly the given scale
// and not yet rescaled.
func (pe *planEval) node(n *poly.Node, scale float64) (*Ciphertext, error) {
	ev := pe.ev
	level := pe.level - n.Depth
	var acc *Ciphertext
	add := func(term *Ciphertext) (err error) {
		term.Scale = scale // exact by construction of the operand scales
		if acc == nil {
			acc = term
			return nil
		}
		acc, err = ev.Add(acc, term)
		return err
	}
	for _, pr := range n.Products {
		giant := pe.power(pr.Giant, level)
		ql := float64(pe.moduli[level+1]) // the prime the quotient's rescale divides by
		q, err := pe.node(pr.Quotient, scale*ql/giant.Scale)
		if err != nil {
			return nil, err
		}
		if q, err = pe.finish(q); err != nil {
			return nil, err
		}
		prod, err := ev.Mul(q, giant)
		if err != nil {
			return nil, err
		}
		if err := add(prod); err != nil {
			return nil, err
		}
	}
	for i, c := range n.Coeffs {
		if i == 0 || c == 0 {
			continue
		}
		x := pe.power(i, level)
		if err := add(ev.MulByConst(x, c, scale/x.Scale)); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("ckks: polynomial plan holds a sum without terms")
	}
	if n.Coeffs[0] != 0 {
		acc = ev.AddConst(acc, n.Coeffs[0])
	}
	return acc, nil
}

// EvaluateComposite evaluates a composition of polynomials (applied left
// to right), e.g. a sign composite, re-targeting the default scale at
// every stage.
func (ev *Evaluator) EvaluateComposite(ct *Ciphertext, stages []*poly.Polynomial) (*Ciphertext, error) {
	cur := ct
	var err error
	for i, st := range stages {
		cur, err = ev.EvaluatePolynomial(cur, poly.NewPlan(st), ev.params.DefaultScale())
		if err != nil {
			return nil, fmt.Errorf("ckks: composite stage %d: %w", i, err)
		}
	}
	return cur, nil
}

// EvaluateReLU evaluates relu(x) ~= 0.5*x*(1+sign(x)) given a sign
// composition valid on [-bound, bound] (inputs are normalised by 1/bound
// first, and the result is multiplied back).
func (ev *Evaluator) EvaluateReLU(ct *Ciphertext, stages []*poly.Polynomial, bound float64) (*Ciphertext, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("ckks: empty sign composition")
	}
	// Normalise: y = x / bound, landing exactly on the default scale.
	ql := ev.params.RingQ().Moduli[ct.Level()]
	cs := ev.params.DefaultScale() * float64(ql) / ct.Scale
	norm := ev.MulByConst(ct, 1/bound, cs)
	y, err := ev.Rescale(norm)
	if err != nil {
		return nil, err
	}
	y.Scale = ev.params.DefaultScale()
	// Fold 0.5*(1+sign) into the last stage: h = 0.5 + 0.5*sign.
	adjusted := make([]*poly.Polynomial, len(stages))
	copy(adjusted, stages[:len(stages)-1])
	last := stages[len(stages)-1]
	half := &poly.Polynomial{Coeffs: make([]float64, len(last.Coeffs)), Basis: last.Basis, A: last.A, B: last.B}
	for i, c := range last.Coeffs {
		half.Coeffs[i] = 0.5 * c
	}
	half.Coeffs[0] += 0.5
	adjusted[len(stages)-1] = half

	h, err := ev.EvaluateComposite(y, adjusted)
	if err != nil {
		return nil, err
	}
	// relu(x) = x * h(x/bound): multiply by the original ciphertext.
	xd := ct.CopyNew()
	if xd.Level() > h.Level() {
		if err := ev.DropLevel(xd, xd.Level()-h.Level()); err != nil {
			return nil, err
		}
	}
	prod, err := ev.Mul(xd, h)
	if err != nil {
		return nil, err
	}
	rl, err := ev.Relinearize(prod)
	if err != nil {
		return nil, err
	}
	out, err := ev.Rescale(rl)
	if err != nil {
		return nil, err
	}
	return out, nil
}
