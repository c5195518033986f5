package poly_test

import (
	"math"
	"math/bits"
	"testing"

	"antace/internal/poly"
	"antace/internal/poly/polytest"
)

// evalPlan runs the plan on a float: the same products and sums the
// encrypted evaluation performs, without the scales.
func evalPlan(pl *poly.Plan, x float64) float64 {
	if pl.Root == nil {
		return pl.Poly.Coeffs[0]
	}
	if pl.Affine {
		x = (2*x - (pl.Poly.A + pl.Poly.B)) / (pl.Poly.B - pl.Poly.A)
	}
	powers := map[int]float64{0: 1, 1: x}
	for _, pw := range pl.Powers {
		v := powers[pw.A] * powers[pw.B]
		if pl.Poly.Basis == poly.Chebyshev {
			v = 2*v - powers[pw.A-pw.B]
		}
		powers[pw.Index] = v
	}
	var node func(n *poly.Node) float64
	node = func(n *poly.Node) float64 {
		acc := n.Coeffs[0]
		for _, pr := range n.Products {
			acc += node(pr.Quotient) * powers[pr.Giant]
		}
		for i, c := range n.Coeffs {
			if i > 0 && c != 0 {
				acc += c * powers[i]
			}
		}
		return acc
	}
	return node(pl.Root)
}

func TestPlanDepthOptimalAndExact(t *testing.T) {
	for _, p := range polytest.Cases() {
		pl := poly.NewPlan(p)
		deg := p.Degree()
		want := bits.Len(uint(deg)) // ceil(log2(deg+1))
		if pl.Affine {
			want++
		}
		if pl.Depth() != want {
			t.Fatalf("degree %d basis %d: depth %d, want %d", deg, p.Basis, pl.Depth(), want)
		}
		// Structure: every operand exists and lives no deeper than its user.
		have := map[int]bool{1: true}
		for _, pw := range pl.Powers {
			if pw.A+pw.B != pw.Index || !have[pw.A] || !have[pw.B] || poly.PowerDepth(pw.A) != poly.PowerDepth(pw.Index)-1 {
				t.Fatalf("degree %d: power %+v formed from missing or misplaced operands", deg, pw)
			}
			if p.Basis == poly.Chebyshev && pw.A != pw.B && !have[pw.A-pw.B] {
				t.Fatalf("degree %d: power %+v subtracts a missing T_%d", deg, pw, pw.A-pw.B)
			}
			have[pw.Index] = true
		}
		var check func(n *poly.Node)
		check = func(n *poly.Node) {
			if n.Depth < 0 {
				t.Fatalf("degree %d: node above the input", deg)
			}
			for i, c := range n.Coeffs {
				if i > 0 && c != 0 && (!have[i] || poly.PowerDepth(i) > n.Depth) {
					t.Fatalf("degree %d: term X_%d missing or below its node at depth %d", deg, i, n.Depth)
				}
			}
			for _, pr := range n.Products {
				if !have[pr.Giant] || poly.PowerDepth(pr.Giant) > n.Depth || pr.Quotient.Depth != n.Depth-1 {
					t.Fatalf("degree %d: product by X_%d misplaced at depth %d", deg, pr.Giant, n.Depth)
				}
				check(pr.Quotient)
			}
		}
		check(pl.Root)
		if pl.Root.Depth != bits.Len(uint(deg))-1 {
			t.Fatalf("degree %d: root at depth %d", deg, pl.Root.Depth)
		}
		// Walk stays inside the plan's depth.
		pl.Walk(func(_ poly.Step, depth int) {
			if depth < 0 || depth >= pl.Depth() {
				t.Fatalf("degree %d: operation at depth %d of a depth-%d plan", deg, depth, pl.Depth())
			}
		})
		lo, hi := p.A, p.B
		if p.Basis == poly.Monomial {
			lo, hi = -1, 1
		}
		for _, u := range []float64{0, 0.13, 0.5, 0.77, 1} {
			x := lo + (hi-lo)*u
			if got, ref := evalPlan(pl, x), p.Eval(x); math.Abs(got-ref) > 1e-9 {
				t.Fatalf("degree %d basis %d: plan(%g) = %g, polynomial %g", deg, p.Basis, x, got, ref)
			}
		}
	}
}

// TestPlanShapes pins the plans of the polynomials the compiler emits: the
// sign composite's f_3 and odd degree-15 stages and EvalMod's degree-30
// cosine.
func TestPlanShapes(t *testing.T) {
	cos30 := poly.ChebyshevInterpolate(func(x float64) float64 { return math.Cos((2*math.Pi*25*x - math.Pi/2) / 16) }, -1, 1, 30)
	odd15 := poly.NewMonomial(make([]float64, 16)...)
	for i := 1; i < 16; i += 2 {
		odd15.Coeffs[i] = 1
	}
	for _, c := range []struct {
		name                string
		p                   *poly.Polynomial
		depth, muls, relins int
	}{
		{"f3", poly.FN(3), 3, 5, 4},
		{"odd15", odd15, 4, 8, 7},
		{"evalmod30", cos30, 5, 12, 9},
		{"linear", poly.NewMonomial(0.5, 2), 1, 0, 0},
		{"constant", poly.NewMonomial(3), 0, 0, 0},
	} {
		pl := poly.NewPlan(c.p)
		if pl.Depth() != c.depth || pl.Count(poly.StepMul) != c.muls || pl.Count(poly.StepRelin) != c.relins {
			t.Errorf("%s: depth %d, %d products, %d relinearisations; want %d, %d, %d",
				c.name, pl.Depth(), pl.Count(poly.StepMul), pl.Count(poly.StepRelin), c.depth, c.muls, c.relins)
		}
	}
}
