package poly

import "math/bits"

// Plan is how one polynomial is evaluated on a ciphertext: the
// power-basis products, and a tree of sums over them, each with the depth
// it sits at. It is the single description every layer reads — the CKKS
// evaluator executes it, the compiler takes the stage's level consumption
// from it, and the cost models price its operations (Walk) at their real
// levels.
//
// The construction is the scale-exact Paterson–Stockmeyer evaluation of
// Bossuat et al.: a node returns its sum unrescaled, at a scale of about
// Δ·q, so the constants of its direct terms are still encoded at about q;
// the products of a node and its direct terms are added before their one
// shared rescale, and a node is relinearised once, after that addition,
// however many products it holds. The plan is depth-optimal: Depth is
// ceil(log2(degree+1)), plus one when a Chebyshev interval other than
// [-1,1] needs the affine input map.
//
// Depths inside the plan (Node.Depth, PowerDepth) count levels below the
// mapped input x; Walk reports them below the plan's input.
type Plan struct {
	Poly *Polynomial
	// Affine: a Chebyshev polynomial over an interval other than [-1,1]
	// first maps its input onto [-1,1], which takes one level.
	Affine bool
	// Powers lists the power-basis products X_Index = X_A·X_B (Chebyshev:
	// 2·T_A·T_B − T_{A−B}) in ascending index order, operands first. Every
	// power is an operand of some later product or term; each is
	// relinearised and rescaled, and lives PowerDepth(Index) levels below x.
	Powers []Power
	// Root yields the result; nil for a constant polynomial, which needs no
	// level at all.
	Root *Node
}

// Power is one power-basis product, Index = A + B with A the largest power
// of two below Index.
type Power struct{ Index, A, B int }

// PowerDepth is the number of levels below x at which X_i lives.
func PowerDepth(i int) int { return bits.Len(uint(i - 1)) }

// Node is the sum Σ Quotient_j·X_{Giant_j} + Σ Coeffs[i]·X_i (Coeffs[0] the
// constant), formed Depth levels below x. A node with products is a
// degree-2 ciphertext until it is relinearised, once, before the rescale
// that ends it; a quotient sits one level above the node that multiplies it.
type Node struct {
	Depth    int
	Coeffs   []float64
	Products []Product
}

// Product is one giant-step product of a node.
type Product struct {
	Quotient *Node
	Giant    int
}

// Step is one homomorphic operation of a plan.
type Step int

const (
	StepMul      Step = iota // ciphertext × ciphertext, degree 2 out
	StepRelin                // relinearisation: one key switch
	StepRescale              // division by the level's prime
	StepMulConst             // ciphertext × constant
	StepAdd                  // ciphertext + ciphertext
)

// NewPlan derives the evaluation plan of p. The baby-step size — powers up
// to it are all formed, above it only the powers of two — is the one that
// needs the fewest relinearisations, then the fewest products.
func NewPlan(p *Polynomial) *Plan {
	deg := p.Degree()
	if deg == 0 {
		return &Plan{Poly: p}
	}
	var best *Plan
	var bestRelins, bestMuls int
	for m := 2; m == 2 || m <= deg; m *= 2 {
		b := &planBuilder{chebyshev: p.Basis == Chebyshev, m: m, used: make([]bool, deg+1)}
		pl := &Plan{
			Poly:   p,
			Affine: p.Basis == Chebyshev && (p.A != -1 || p.B != 1),
			Root:   b.node(p.Coeffs[:deg+1], p.Depth()-1),
		}
		pl.Powers = b.powers()
		relins, muls := pl.Count(StepRelin), pl.Count(StepMul)
		if best == nil || relins < bestRelins || (relins == bestRelins && muls < bestMuls) {
			best, bestRelins, bestMuls = pl, relins, muls
		}
	}
	return best
}

// Depth is the number of levels the evaluation consumes.
func (pl *Plan) Depth() int {
	if pl.Root == nil {
		return 0
	}
	d := pl.Root.Depth + 1 // the rescale that ends the root
	if pl.Affine {
		d++
	}
	return d
}

// Count returns how many operations of one kind the plan performs.
func (pl *Plan) Count(kind Step) int {
	n := 0
	pl.Walk(func(s Step, _ int) {
		if s == kind {
			n++
		}
	})
	return n
}

// Walk visits every homomorphic operation of the evaluation in execution
// order, with the number of levels below the plan's input its operand sits
// at: an operation at depth d on an input at level l works on l-d+1 primes.
func (pl *Plan) Walk(visit func(s Step, depth int)) {
	if pl.Root == nil {
		return
	}
	base := 0
	if pl.Affine {
		visit(StepMulConst, 0)
		visit(StepRescale, 0)
		base = 1
	}
	for _, pw := range pl.Powers {
		d := base + PowerDepth(pw.Index) - 1
		visit(StepMul, d)
		if pl.Poly.Basis == Chebyshev {
			visit(StepAdd, d) // the doubling
			if pw.A != pw.B {
				visit(StepMulConst, d) // T_{A−B} brought to the product's scale
				visit(StepAdd, d)
			}
		}
		visit(StepRelin, d)
		visit(StepRescale, d)
	}
	pl.Root.walk(base, visit)
}

// walk visits the operations that form n and end it: the relinearisation
// its products call for, and its rescale.
func (n *Node) walk(base int, visit func(s Step, depth int)) {
	d := base + n.Depth
	summands := 0
	for _, pr := range n.Products {
		pr.Quotient.walk(base, visit)
		visit(StepMul, d)
		summands++
	}
	for _, c := range n.Coeffs[1:] {
		if c != 0 {
			visit(StepMulConst, d)
			summands++
		}
	}
	for ; summands > 1; summands-- {
		visit(StepAdd, d)
	}
	if len(n.Products) > 0 {
		visit(StepRelin, d)
	}
	visit(StepRescale, d)
}

// planBuilder splits one polynomial for one baby-step size m and records
// which powers the split reads.
type planBuilder struct {
	chebyshev bool
	m         int
	used      []bool
}

// direct reports whether c·X_i can be a direct term of a node at the given
// depth: X_i is in the power basis (a baby step, or a power of two) and
// lives no deeper than the node.
func (b *planBuilder) direct(i, depth int) bool {
	return (i <= b.m || i&(i-1) == 0) && PowerDepth(i) <= depth
}

// node plans the sum with the given coefficients at the given depth. The
// caller guarantees degree < 2^(depth+1), which is what makes every split
// below fit: the terms that cannot be direct — powers outside the basis,
// or deeper than the node, the leading ones on the critical path — are
// divided by the largest power of two g not above them, leaving a quotient
// of degree < g <= 2^depth for the level above. Terms of the remainder
// always fit, so only a leading quotient is ever split below the baby-step
// size.
func (b *planBuilder) node(coeffs []float64, depth int) *Node {
	n := &Node{Depth: depth}
	rest := append([]float64(nil), coeffs...)
	for {
		d := len(rest) - 1
		for d > 0 && (rest[d] == 0 || b.direct(d, depth)) {
			d--
		}
		if d == 0 {
			break
		}
		// rest[g..d] = q·X_g; Chebyshev: T_{g+j} = 2·T_g·T_j − T_{g−j}.
		g := 1 << (bits.Len(uint(d)) - 1)
		q := make([]float64, d-g+1)
		for j := range q {
			c := rest[g+j]
			rest[g+j] = 0
			if b.chebyshev && j > 0 {
				q[j] = 2 * c
				rest[g-j] -= c
			} else {
				q[j] = c
			}
		}
		n.Products = append(n.Products, Product{Quotient: b.node(q, depth-1), Giant: g})
		b.used[g] = true
	}
	for len(rest) > 1 && rest[len(rest)-1] == 0 {
		rest = rest[:len(rest)-1]
	}
	n.Coeffs = rest
	for i := 1; i < len(rest); i++ {
		if rest[i] != 0 {
			b.used[i] = true
		}
	}
	return n
}

// powers closes the set of powers the nodes read under the products that
// form them and lists those products, operands first.
func (b *planBuilder) powers() []Power {
	var out []Power
	for i := len(b.used) - 1; i > 1; i-- {
		if !b.used[i] {
			continue
		}
		a := 1 << (bits.Len(uint(i-1)) - 1)
		b.used[a], b.used[i-a] = true, true
		if b.chebyshev && 2*a != i {
			b.used[2*a-i] = true
		}
		out = append(out, Power{Index: i, A: a, B: i - a})
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}
