// Package kswork counts the work of hybrid key switching and of the
// kernels built on it, in the units of the three fused ring kernels
// (poly.decomp_modup, poly.hw_modmuladd, poly.mod_down). The counts are
// pure functions of the ring shape and the level, so two readers share
// them: the cost model multiplies them by calibrated seconds per unit,
// and the compiler compares them as they are when it sizes the
// bootstrapping DFTs. The package is a leaf so that both can import it
// (costmodel imports ckksir).
package kswork

import "math"

// Geometry is the ring shape the counts depend on: the ring degree 2^LogN
// and K special primes. Hybrid key switching cuts the chain into digits
// of K primes (ckks.Parameters does), so K is the digit width as well.
type Geometry struct {
	LogN int `json:"log_n"`
	K    int `json:"k"`
}

func (g Geometry) n() float64 { return math.Exp2(float64(g.LogN)) }

// Digits returns the key-switching digit count of a polynomial entering
// at level (level+1 residues).
func (g Geometry) Digits(level int) int { return (level + g.K) / g.K }

// ModUp counts poly.decomp_modup's units for one decomposition entering
// at level: per digit of width w, the rk−w rows that are not the digit's
// own are converted (w terms per coefficient) and forward-transformed
// (logN butterflies). The last digit may be narrower than the rest.
func (g Geometry) ModUp(level int) float64 {
	r := level + 1
	rk := r + g.K
	logN := float64(g.LogN)
	work := float64(r/g.K*(rk-g.K)) * (float64(g.K) + logN)
	if rest := r % g.K; rest > 0 {
		work += float64(rk-rest) * (float64(rest) + logN)
	}
	return work * g.n()
}

// macReduceWeight is the cost of the 128-bit reduction that closes a
// lazily accumulated sum, in multiply-accumulates, and macBatch the
// number of terms one reduction covers (ring's fusedDigitBatch). The
// reduction is why the kernel's time per term falls with the digit
// count: 5.2 ns at 2 digits, 3.1 ns at 5 and at 15.
const (
	macReduceWeight = 2
	macBatch        = 8
)

// MAC counts hw_modmuladd units for one coefficient's lazy sum of terms
// products.
func MAC(terms int) float64 {
	return float64(terms + macReduceWeight*((terms+macBatch-1)/macBatch))
}

// MulAdd counts poly.hw_modmuladd's units for one evaluation-key inner
// product: two key halves, every row of Q∪P, a sum over the digits.
func (g Geometry) MulAdd(level int) float64 {
	return 2 * float64(level+1+g.K) * g.n() * MAC(g.Digits(level))
}

// ModDownConvWeight is what one base-conversion term of the mod-down
// tail costs in that kernel's butterflies. A term is a 128-bit
// multiply-accumulate fed from a P row and a constant; the tail's K of
// them per coefficient grow with the special modulus while its
// transforms do not, so pricing them as butterflies (weight 1) made wide
// special moduli look cheaper than they run. 1.6 is the slope measured
// over K = 2..10 on the key-switch digit sweep (EXPERIMENTS.md).
const ModDownConvWeight = 1.6

// ModDown counts poly.mod_down's units for one division by P of both
// ciphertext halves: per half, the P rows are inverse-transformed, every
// Q row is inverse-transformed, base-converted from K terms and
// transformed back.
func (g Geometry) ModDown(level int) float64 {
	r, k, logN := float64(level+1), float64(g.K), float64(g.LogN)
	return 2 * g.n() * (k*logN + r*(2*logN+ModDownConvWeight*k))
}

// Work is a count per fused kernel.
type Work struct {
	ModUp, MulAdd, ModDown float64
}

// Plus returns w + o.
func (w Work) Plus(o Work) Work {
	return Work{w.ModUp + o.ModUp, w.MulAdd + o.MulAdd, w.ModDown + o.ModDown}
}

// Times returns w scaled by f.
func (w Work) Times(f float64) Work {
	return Work{w.ModUp * f, w.MulAdd * f, w.ModDown * f}
}

// Units sums the three counts. Their units — a converted-and-transformed
// coefficient, a multiply-accumulate, a divided coefficient — cost within
// a factor of 1.6 of each other on the reference machine (costmodel's
// default calibration), which is close enough to rank circuit shapes
// without a calibration.
func (w Work) Units() float64 { return w.ModUp + w.MulAdd + w.ModDown }

// KeyCoeffs returns the size, in coefficients, of one switching key whose
// digits cover the chain up to level: per digit, two polynomials over
// Q∪P.
func (g Geometry) KeyCoeffs(level int) float64 {
	return float64(g.Digits(level)*2*(level+1+g.K)) * g.n()
}

// KeySwitch counts one hybrid key switch entering at level: decompose,
// evaluation-key inner product, division by P.
func (g Geometry) KeySwitch(level int) Work {
	return Work{g.ModUp(level), g.MulAdd(level), g.ModDown(level)}
}

// BabySteps returns the baby-step count of a baby-step/giant-step
// evaluation over diags diagonals: the smallest power of two whose square
// covers them.
func BabySteps(diags int) int {
	n1 := 1
	for n1*n1 < diags {
		n1 <<= 1
	}
	return n1
}

// GiantSteps returns the giant-step count that goes with BabySteps: the
// groups of n1 diagonals the diags diagonals fill.
func GiantSteps(diags int) int {
	n1 := BabySteps(diags)
	return (diags + n1 - 1) / n1
}

// LinearTransform counts the fused baby-step/giant-step evaluation of a
// transform with diags diagonals entering at level, as
// ckks.EvaluateLinearTransform runs it. The n1−1 baby rotations share
// one decomposition and pay a key product each, staying over Q∪P. Every
// diagonal is one multiply-accumulate per half and Q∪P row in its
// group's inner sum. Each of the n2−1 giant rotations divides the c1
// half of its group's sum by P, decomposes it and adds a key product
// into the one Q∪P accumulator, which is divided once at the end.
func (g Geometry) LinearTransform(diags, level int) Work {
	n1, n2 := BabySteps(diags), GiantSteps(diags)
	babies, giants := float64(n1-1), float64(n2-1)
	sums := g.n() * float64(2*n2*(level+1+g.K)) * MAC(n1)
	w := Work{
		ModUp:   giants * g.ModUp(level),
		MulAdd:  (babies+giants)*g.MulAdd(level) + sums,
		ModDown: (1 + giants/2) * g.ModDown(level),
	}
	if n1 > 1 {
		w.ModUp += g.ModUp(level)
	}
	return w
}

// MaxStages is the largest stage count a DFT is factorised into.
const MaxStages = 4

// StageDiagonals returns the diagonal count of every stage, in evaluation
// order, when the special FFT over 2^logSlots slots is factorised into
// the given number of stages. The logSlots radix-2 layers are dealt out
// as evenly as they go, smaller radices first: a transform's first stage
// runs at its highest level. A stage of radix r has 2r−1 diagonals,
// except the one holding the half-length butterfly, whose ±r/2 strides
// wrap onto each other and leave r. That stage is CoeffsToSlots' first
// (inverse) and SlotsToCoeffs' last.
func StageDiagonals(logSlots, stages int, inverse bool) []int {
	logRadix := StageLogRadices(logSlots, stages)
	out := make([]int, len(logRadix))
	for i, lr := range logRadix {
		out[i] = 2<<lr - 1
	}
	wrap := len(out) - 1
	if inverse {
		wrap = 0
	}
	out[wrap] = 1 << logRadix[wrap]
	return out
}

// StageLogRadices splits logSlots radix-2 layers over stages consecutive
// groups, sizes ascending and differing by at most one.
func StageLogRadices(logSlots, stages int) []int {
	out := make([]int, stages)
	for i := range out {
		out[i] = (logSlots + i) / stages
	}
	return out
}
