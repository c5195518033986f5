package ckks

import (
	"fmt"
	"sort"

	"antace/internal/ring"
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
	_, index := lt.babyGiant()
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
//
// The evaluation is one fused baby-step/giant-step kernel. The baby
// rotations of the input share one hoisted decomposition. Each giant
// group's inner sum Σ_b pt_{g+b} ⊙ rot_b(x) is one lazily reduced inner
// product per ciphertext half. A giant rotation then splits in two: the
// permuted c0 half joins a running sum over Q, and the evaluation-key
// inner product of the permuted, decomposed c1 half joins a running sum
// over Q∪P that is divided by P once, after the last group — division by
// P is linear up to rounding, so the one division differs from the
// per-rotation ones only by less rounding noise. One decomposition is
// alive at a time.
func (ev *Evaluator) EvaluateLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder, targetScale float64) (*Ciphertext, error) {
	if lt.Slots != ev.params.Slots() {
		return nil, fmt.Errorf("ckks: linear transform over %d slots, parameters have %d", lt.Slots, ev.params.Slots())
	}
	if len(lt.Diags) == 0 {
		return nil, fmt.Errorf("ckks: linear transform has no diagonals")
	}
	if targetScale == 0 {
		targetScale = ev.params.DefaultScale()
	}
	level := ct.Level()
	if level < 1 {
		return nil, fmt.Errorf("ckks: linear transform needs at least one level")
	}
	rQ, rP := ev.params.RingQ(), ev.params.RingP()
	ql := rQ.Moduli[level]
	ptScale := targetScale * float64(ql) / ct.Scale
	if ptScale < 2 {
		return nil, fmt.Errorf("ckks: linear transform plaintext scale %g collapses (target %g from ciphertext scale %g)", ptScale, targetScale, ct.Scale)
	}

	n1, index := lt.babyGiant()
	slots := lt.Slots
	giants := make([]int, 0, len(index))
	var babyKs []int
	for g, bs := range index {
		giants = append(giants, g)
		for _, b := range bs {
			if b != 0 {
				babyKs = append(babyKs, b)
			}
		}
	}
	sort.Ints(giants)
	babies, err := ev.RotateHoisted(ct, babyKs)
	if err != nil {
		return nil, err
	}
	babies[0] = ct

	acc := NewCiphertext(ev.params, 1, level) // Σ over Q, both halves
	acc.Scale = ct.Scale * ptScale
	sum := ev.newKeySwitchSum(level) // Σ over Q∪P of the giant key switches
	u0, u1, phi := rQ.GetPolyNoZero(level), rQ.GetPolyNoZero(level), rQ.GetPolyNoZero(level)
	defer func() {
		sum.release(rQ, rP)
		rQ.PutPoly(u0)
		rQ.PutPoly(u1)
		rQ.PutPoly(phi)
	}()
	pts := make([]*ring.Poly, 0, n1)
	b0s := make([]*ring.Poly, 0, n1)
	b1s := make([]*ring.Poly, 0, n1)
	for _, g := range giants {
		pts, b0s, b1s = pts[:0], b0s[:0], b1s[:0]
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
			pts = append(pts, pt.Value)
			b0s = append(b0s, babies[b].Value[0])
			b1s = append(b1s, babies[b].Value[1])
		}
		if g == 0 {
			rQ.InnerProductAdd(pts, b0s, acc.Value[0])
			rQ.InnerProductAdd(pts, b1s, acc.Value[1])
			continue
		}
		rQ.InnerProduct(pts, b0s, u0)
		rQ.InnerProduct(pts, b1s, u1)
		// rot_g(u0, u1) = (φ(u0) + d0, d1), (d0, d1) the key switch of φ(u1).
		key, idx, err := ev.galoisKey(rQ.GaloisElementForRotation(g))
		if err != nil {
			return nil, err
		}
		rQ.AutomorphismNTT(u0, idx, phi)
		rQ.Add(acc.Value[0], phi, acc.Value[0])
		rQ.AutomorphismNTT(u1, idx, phi)
		h := ev.decomposeForKeySwitch(phi)
		err = ev.addKeySwitch(sum, h, &key.SwitchingKey)
		h.release(rQ, rP)
		if err != nil {
			return nil, err
		}
	}
	if !sum.empty {
		ev.modDown(sum)
		rQ.Add(acc.Value[0], sum.q0, acc.Value[0])
		rQ.Add(acc.Value[1], sum.q1, acc.Value[1])
	}
	out, err := ev.Rescale(acc)
	if err != nil {
		return nil, err
	}
	out.Scale = targetScale
	return out, nil
}
