// Package kswork expands every CKKS instruction into the primitives the
// runtime runs it as (Geometry.Expand): NTT and INTT rows, pointwise
// passes, and the calls of the three fused key-switching kernels
// (poly.decomp_modup, poly.hw_modmuladd, poly.mod_down), each carrying
// its work in that kernel's units. The expansion is a pure function of
// the ring shape, the level and the instruction, and every reader folds
// it: the cost model prices it in calibrated seconds, the POLY IR emits
// it, the compiler's DFT stage rule sums its kernel units, and a test
// holds its kernel calls to the ones the runtime makes. The package also
// declares the names those readers share, the CKKS instructions and the
// POLY primitives. It imports nothing of the module but poly, so the
// runtime, the compiler and the observability layer can all import it.
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
// ciphertext halves: per half, the P rows are inverse-transformed, and
// every Q row receives the P part base-converted from K terms and
// transformed forward — the Q rows stay in the NTT domain.
func (g Geometry) ModDown(level int) float64 {
	r, k, logN := float64(level+1), float64(g.K), float64(g.LogN)
	return 2 * g.n() * (k*logN + r*(logN+ModDownConvWeight*k))
}

// KeyCoeffs returns the size, in coefficients, of one switching key whose
// digits cover the chain up to level: per digit, two polynomials over
// Q∪P.
func (g Geometry) KeyCoeffs(level int) float64 {
	return float64(g.Digits(level)*2*(level+1+g.K)) * g.n()
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

// Split is the shape of one baby-step/giant-step transform as
// ckks.EvaluateBSGS runs it: a bootstrap's DFT stage or a program's
// ckks.linear.
type Split struct {
	// Babies and Giants count the distinct non-zero baby and giant
	// rotations; the g = 0 group is one more group than Giants.
	Babies, Giants int
	// Masks counts the plaintext products, ZeroMasks those against the
	// b = 0 baby, whose rows over P are zero and skipped.
	Masks, ZeroMasks int
}

// DFTSplit is the split of a DFT stage with diags diagonals: BabySteps
// baby steps (b = 0 among them) in GiantSteps groups, each holding its
// b = 0 diagonal.
func DFTSplit(diags int) Split {
	n1, n2 := BabySteps(diags), GiantSteps(diags)
	return Split{Babies: n1 - 1, Giants: n2 - 1, Masks: diags, ZeroMasks: n2}
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
