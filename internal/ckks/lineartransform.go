package ckks

import (
	"fmt"
	"sort"
)

// LinearTransform is a slots x slots complex matrix in diagonal form:
// Diags[d][i] = M[i][(i+d) mod slots]. Homomorphic evaluation computes
// slots(out) = M * slots(in) using baby-step/giant-step rotations.
type LinearTransform struct {
	Slots int
	Diags map[int][]complex128
	// N1 is the baby-step count; 0 selects sqrt of the diagonal count.
	N1 int
	// Memo, when set, keeps each pre-rotated, encoded diagonal per (level,
	// plaintext scale), so evaluators sharing the transform encode a
	// diagonal once instead of on every evaluation. Diags and N1 must not
	// change once it holds entries.
	Memo *PlaintextMemo
}

// NewLinearTransformFromMatrix converts a dense row-major matrix into
// diagonal form, dropping all-zero diagonals.
func NewLinearTransformFromMatrix(m [][]complex128) *LinearTransform {
	n := len(m)
	lt := &LinearTransform{Slots: n, Diags: map[int][]complex128{}}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		zero := true
		for i := 0; i < n; i++ {
			diag[i] = m[i][(i+d)%n]
			if diag[i] != 0 {
				zero = false
			}
		}
		if !zero {
			lt.Diags[d] = diag
		}
	}
	return lt
}

// MulVec applies the transform to a plaintext vector (reference
// implementation for tests).
func (lt *LinearTransform) MulVec(in []complex128) []complex128 {
	out := make([]complex128, lt.Slots)
	for d, diag := range lt.Diags {
		for i := 0; i < lt.Slots; i++ {
			out[i] += diag[i] * in[(i+d)%lt.Slots]
		}
	}
	return out
}

// babyGiant splits the diagonal indices into baby and giant components.
func (lt *LinearTransform) babyGiant() (n1 int, index map[int][]int) {
	count := len(lt.Diags)
	n1 = lt.N1
	if n1 == 0 {
		n1 = 1
		for n1*n1 < count {
			n1 <<= 1
		}
	}
	index = map[int][]int{}
	for d := range lt.Diags {
		g := d - d%n1
		index[g] = append(index[g], d%n1)
	}
	for g := range index {
		sort.Ints(index[g])
	}
	return n1, index
}

// Rotations returns the slot rotations required to evaluate the
// transform (callers must generate the corresponding Galois keys).
func (lt *LinearTransform) Rotations() []int {
	n1, index := lt.babyGiant()
	_ = n1
	set := map[int]bool{}
	for g, babies := range index {
		if g != 0 {
			set[g] = true
		}
		for _, b := range babies {
			if b != 0 {
				set[b] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// EvaluateLinearTransform applies lt to ct. The encoder is used to encode
// the (rotated) diagonals at the level and scale required for an exact
// landing on targetScale (0 selects the parameter default) after the
// single rescale this operation consumes. The ciphertext must use the
// full N/2 slots.
func (ev *Evaluator) EvaluateLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder, targetScale float64) (*Ciphertext, error) {
	if lt.Slots != ev.params.Slots() {
		return nil, fmt.Errorf("ckks: linear transform over %d slots, parameters have %d", lt.Slots, ev.params.Slots())
	}
	if targetScale == 0 {
		targetScale = ev.params.DefaultScale()
	}
	level := ct.Level()
	if level < 1 {
		return nil, fmt.Errorf("ckks: linear transform needs at least one level")
	}
	ql := ev.params.RingQ().Moduli[level]
	ptScale := targetScale * float64(ql) / ct.Scale
	if ptScale < 2 {
		return nil, fmt.Errorf("ckks: linear transform plaintext scale %g collapses (target %g from ciphertext scale %g)", ptScale, targetScale, ct.Scale)
	}

	n1, index := lt.babyGiant()
	slots := lt.Slots

	// Baby rotations of the input share one hoisted decomposition.
	var babyKs []int
	for _, bs := range index {
		babyKs = append(babyKs, bs...)
	}
	babies, err := ev.rotateBabiesForTest(ct, babyKs)
	if err != nil {
		return nil, err
	}
	babies[0] = ct
	_ = n1

	var acc *Ciphertext
	giants := make([]int, 0, len(index))
	for g := range index {
		giants = append(giants, g)
	}
	sort.Ints(giants)
	for _, g := range giants {
		var inner *Ciphertext
		for _, b := range index[g] {
			pt, _, err := lt.Memo.Get(PlaintextKey{Const: g + b, Level: level, Scale: ptScale}, func() (*Plaintext, error) {
				diag := lt.Diags[g+b]
				// Pre-rotate the diagonal by -g so the outer giant rotation
				// aligns it: rot_g(rot_{-g}(diag) ⊙ rot_b(x)) = diag ⊙ rot_{g+b}(x).
				rotated := make([]complex128, slots)
				for i := 0; i < slots; i++ {
					rotated[i] = diag[((i-g)%slots+slots)%slots]
				}
				return enc.Encode(rotated, level, ptScale)
			})
			if err != nil {
				return nil, err
			}
			term := ev.MulPlain(babies[b], pt)
			if inner == nil {
				inner = term
				continue
			}
			inner, err = ev.Add(inner, term)
			if err != nil {
				return nil, err
			}
		}
		if g != 0 {
			var err error
			inner, err = ev.Rotate(inner, g)
			if err != nil {
				return nil, err
			}
		}
		if acc == nil {
			acc = inner
			continue
		}
		var err error
		acc, err = ev.Add(acc, inner)
		if err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("ckks: linear transform has no diagonals")
	}
	out, err := ev.Rescale(acc)
	if err != nil {
		return nil, err
	}
	out.Scale = targetScale
	return out, nil
}

// rotateBabiesForTest switches between hoisted and plain rotations.
var useHoistedBabies = true

func (ev *Evaluator) rotateBabiesForTest(ct *Ciphertext, ks []int) (map[int]*Ciphertext, error) {
	if useHoistedBabies {
		return ev.RotateHoisted(ct, ks)
	}
	out := map[int]*Ciphertext{}
	for _, k := range ks {
		if _, ok := out[k]; ok {
			continue
		}
		if k == 0 {
			out[0] = ct.CopyNew()
			continue
		}
		r, err := ev.Rotate(ct, k)
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}
