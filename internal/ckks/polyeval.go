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
//
// Every intermediate goes back to the ring pool once dead: a node's
// summands are folded into its accumulator in place, an input of a
// relinearisation or rescale is released after it, and a power after its
// last reader. ct itself is never written or released.
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
		ev.addConstTo(out, pl.Poly.Coeffs[0])
		return out, nil
	}
	moduli := ev.params.RingQ().Moduli
	pe := &planEval{ev: ev, moduli: moduli, chebyshev: pl.Poly.Basis == poly.Chebyshev, powers: map[int]*Ciphertext{1: ct}}
	if pl.Affine {
		// u = (2x - (A+B)) / (B-A), landing exactly on the default scale.
		p := pl.Poly
		cs := ev.params.DefaultScale() * float64(moduli[ct.Level()]) / ct.Scale
		rs, err := pe.finish(ev.MulByConst(ct, 2/(p.B-p.A), cs))
		if err != nil {
			return nil, err
		}
		rs.Scale = ev.params.DefaultScale()
		ev.addConstTo(rs, -(p.A+p.B)/(p.B-p.A))
		pe.powers[1], pe.ownsX = rs, true
	}
	pe.level = pe.powers[1].Level()
	pe.countUses(pl)
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

// planEval is one execution of a plan: the level of the (mapped) input,
// the powers formed so far and how many reads each has left.
type planEval struct {
	ev        *Evaluator
	moduli    []uint64 // the chain's primes, by level
	chebyshev bool
	level     int
	powers    map[int]*Ciphertext
	uses      map[int]int
	ownsX     bool // powers[1] is the affine map's output, not the caller's input
}

// countUses records every read of every power the plan makes: the
// operands of the power products (and T_{A−B} in the Chebyshev basis),
// the giant steps and the coefficient terms of the nodes.
func (pe *planEval) countUses(pl *poly.Plan) {
	pe.uses = map[int]int{}
	for _, pw := range pl.Powers {
		pe.uses[pw.A]++
		pe.uses[pw.B]++
		if pe.chebyshev && pw.A != pw.B {
			pe.uses[pw.A-pw.B]++
		}
	}
	var walk func(n *poly.Node)
	walk = func(n *poly.Node) {
		for _, pr := range n.Products {
			pe.uses[pr.Giant]++
			walk(pr.Quotient)
		}
		for i, c := range n.Coeffs {
			if i > 0 && c != 0 {
				pe.uses[i]++
			}
		}
	}
	walk(pl.Root)
}

// read retires one read of power i; after its last, the power goes back
// to the pool. The caller's input is never released.
func (pe *planEval) read(i int) {
	if pe.uses[i]--; pe.uses[i] > 0 || (i == 1 && !pe.ownsX) {
		return
	}
	pe.release(pe.powers[i])
	delete(pe.powers, i)
}

func (pe *planEval) release(ct *Ciphertext) { ct.Release(pe.ev.params) }

// power returns X_i as seen from the given level: the limbs above it are
// left out, nothing is copied (the evaluator never writes to an operand).
func (pe *planEval) power(i, level int) *Ciphertext {
	return levelView(pe.powers[i], level)
}

// finish ends a sum it owns: one relinearisation if it holds products,
// and the rescale; the sum and the relinearised sum are released.
func (pe *planEval) finish(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() == 2 {
		rl, err := pe.ev.Relinearize(ct)
		if err != nil {
			return nil, err
		}
		pe.release(ct)
		ct = rl
	}
	out, err := pe.ev.Rescale(ct)
	pe.release(ct)
	return out, err
}

// fold adds term into acc (or subtracts it, with sub), both owned and
// at one level and scale, in acc's polynomials, and releases term.
func (pe *planEval) fold(acc, term *Ciphertext, sub bool) (*Ciphertext, error) {
	if !sub && acc.Degree() < term.Degree() {
		acc, term = term, acc
	}
	if acc.Level() != term.Level() || acc.Degree() < term.Degree() || acc.Scale != term.Scale {
		return nil, fmt.Errorf("ckks: polynomial plan sums unlike operands (levels %d, %d; scales %g, %g)", acc.Level(), term.Level(), acc.Scale, term.Scale)
	}
	rQ := pe.ev.params.RingQ()
	for i, p := range term.Value {
		if sub {
			rQ.Sub(acc.Value[i], p, acc.Value[i])
		} else {
			rQ.Add(acc.Value[i], p, acc.Value[i])
		}
	}
	pe.release(term)
	return acc, nil
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
		rQ := ev.params.RingQ()
		for _, p := range prod.Value {
			rQ.Add(p, p, p)
		}
		if pw.A == pw.B {
			ev.addConstTo(prod, -1)
		} else {
			// T_{A−B} comes up to the product's scale by a constant
			// multiplication that costs no level.
			tc := pe.power(pw.A-pw.B, level)
			adj := ev.MulByConst(tc, 1, prod.Scale/tc.Scale)
			adj.Scale = prod.Scale
			if prod, err = pe.fold(prod, adj, true); err != nil {
				return err
			}
			pe.read(pw.A - pw.B)
		}
	}
	pe.read(pw.A)
	pe.read(pw.B)
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
		acc, err = pe.fold(acc, term, false)
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
		pe.release(q)
		pe.read(pr.Giant)
		if err := add(prod); err != nil {
			return nil, err
		}
	}
	for i, c := range n.Coeffs {
		if i == 0 || c == 0 {
			continue
		}
		x := pe.power(i, level)
		term := ev.MulByConst(x, c, scale/x.Scale)
		pe.read(i)
		if err := add(term); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("ckks: polynomial plan holds a sum without terms")
	}
	if n.Coeffs[0] != 0 {
		ev.addConstTo(acc, n.Coeffs[0])
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
