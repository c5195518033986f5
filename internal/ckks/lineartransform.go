package ckks

import (
	"fmt"
	"sort"
	"time"

	"antace/internal/kswork"
	"antace/internal/ring"
)

// LinearTransform is a slots x slots complex matrix in diagonal form:
// Diags[d][i] = M[i][(i+d) mod slots]. Homomorphic evaluation computes
// slots(out) = M * slots(in) using baby-step/giant-step rotations.
type LinearTransform struct {
	Slots int
	Diags map[int][]complex128
	// Memo, when set, keeps each pre-rotated diagonal, encoded as the
	// kernel needs it, per (level, plaintext scale), so evaluators sharing the transform
	// encode a diagonal once instead of on every evaluation. Diags must
	// not change once it holds entries.
	Memo *PlaintextMemo
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

// babyGiant splits every diagonal index d into a giant and a baby
// rotation, d = g + b, with kswork.BabySteps baby steps, and returns the
// baby steps of every giant step. Diagonals that all sit on multiples of
// a stride — a DFT stage's do — are split in units of that stride, so
// the n1 baby steps are 0, s, …, (n1−1)·s rather than rotations no
// diagonal uses.
func (lt *LinearTransform) babyGiant() map[int][]int {
	stride := lt.Slots
	for d := range lt.Diags {
		stride = gcd(stride, d)
	}
	n1 := kswork.BabySteps(len(lt.Diags))
	index := map[int][]int{}
	for d := range lt.Diags {
		b := d % (n1 * stride)
		index[d-b] = append(index[d-b], b)
	}
	for g := range index {
		sort.Ints(index[g])
	}
	return index
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Rotations returns the slot rotations required to evaluate the
// transform (callers must generate the corresponding Galois keys).
func (lt *LinearTransform) Rotations() []int {
	index := lt.babyGiant()
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
// It splits the diagonals into baby and giant steps (babyGiant), encodes
// diagonal g+b pre-rotated by −g (over Q∪P unless b = 0, BSGSTerm), so
// that the giant rotation aligns it — rot_g(rot_{−g}(diag) ⊙ rot_b(x)) =
// diag ⊙ rot_{g+b}(x) — and runs the one baby-step/giant-step kernel,
// EvaluateBSGS.
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
	ptScale := targetScale * float64(ev.params.RingQ().Moduli[level]) / ct.Scale
	if ptScale < 2 {
		return nil, fmt.Errorf("ckks: linear transform plaintext scale %g collapses (target %g from ciphertext scale %g)", ptScale, targetScale, ct.Scale)
	}

	index := lt.babyGiant()
	slots := lt.Slots
	giants := make([]int, 0, len(index))
	for g := range index {
		giants = append(giants, g)
	}
	sort.Ints(giants)
	var terms []BSGSTerm
	for _, g := range giants {
		for _, b := range index[g] {
			qp := b != 0
			pt, _, err := lt.Memo.Get(PlaintextKey{Const: g + b, Level: level, Scale: ptScale, QP: qp}, func() (*Plaintext, error) {
				diag := lt.Diags[g+b]
				rotated := make([]complex128, slots)
				for i := 0; i < slots; i++ {
					rotated[i] = diag[((i-g)%slots+slots)%slots]
				}
				if qp {
					return enc.EncodeQP(rotated, level, ptScale)
				}
				return enc.Encode(rotated, level, ptScale)
			})
			if err != nil {
				return nil, err
			}
			terms = append(terms, BSGSTerm{Baby: b, Giant: g, Mask: pt})
		}
	}
	out, err := ev.EvaluateBSGS(ct, terms)
	if err != nil {
		return nil, err
	}
	out.Scale = targetScale
	return out, nil
}

// A BSGSTerm is one mask of a baby-step/giant-step transform: the
// kernel multiplies Mask into the input rotated by Baby and adds the
// product into the sum it rotates by Giant.
type BSGSTerm struct {
	Baby, Giant int
	// Mask is encoded at the input's level, over Q∪P (EncodeQP) unless
	// Baby is 0: the b = 0 baby is zero over P, so its rows there are
	// never read.
	Mask *Plaintext
}

// EvaluateBSGS computes Σ_g rot_g(Σ_b mask ⊙ rot_b(x)): terms sharing a
// giant step are consecutive and form one group, and the sum is rescaled
// once. Every mask has the same scale; the result's is the input's times
// that, over the level's prime.
// A program's linear layer (ckks.linear) and a bootstrap's DFT stage
// (EvaluateLinearTransform) both run here.
//
// The kernel stays over the extended basis Q∪P for as long as it can.
// The baby rotations of the input share one hoisted decomposition and are
// kept as they leave the evaluation-key inner product, before its
// division by P. Each giant group's inner sum Σ_b pt_{g,b} ⊙ rot_b(x) is
// one lazily reduced inner product per ciphertext half. The b = 0 baby is
// (P·c0, P·c1), zero over P, so its products are taken over Q only. A
// giant rotation then splits in two: the permuted c0 half joins a running
// sum over Q∪P as it is, and the c1 half is divided by P, permuted,
// decomposed, and its evaluation-key inner product joins the same sum,
// which is divided by P once, after the last group. Division by P is
// linear up to rounding, so dividing late differs from dividing every
// rotation only by less rounding noise: one half-division per giant step
// and one whole one, none per baby step. Decompositions are released as
// soon as their key product is taken, so the working set is the baby
// steps and two decompositions whatever the giant count.
func (ev *Evaluator) EvaluateBSGS(ct *Ciphertext, terms []BSGSTerm) (*Ciphertext, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("ckks: linear transform has no masks")
	}
	if ct.Degree() != 1 {
		return nil, fmt.Errorf("ckks: linear transform requires a degree-1 ciphertext")
	}
	level := ct.Level()
	if level < 1 {
		return nil, fmt.Errorf("ckks: linear transform needs at least one level")
	}
	ptScale := terms[0].Mask.Scale
	for _, t := range terms {
		if m := t.Mask; m.ValueP == nil && t.Baby != 0 || m.Level() != level || m.Scale != ptScale {
			return nil, fmt.Errorf("ckks: linear transform mask of baby %d is not at level %d and scale %g over the basis it needs", t.Baby, level, ptScale)
		}
	}
	rQ, rP := ev.params.RingQ(), ev.params.RingP()
	be := ev.params.BasisExtender()

	// Everything below is pooled scratch, handed back on every path.
	var scratchQ, scratchP []*ring.Poly
	getQ := func() *ring.Poly {
		p := rQ.GetPolyNoZero(level)
		scratchQ = append(scratchQ, p)
		return p
	}
	getP := func() *ring.Poly {
		p := rP.GetPolyNoZero(rP.MaxLevel())
		scratchP = append(scratchP, p)
		return p
	}
	getSum := func() *keySwitchSum {
		return &keySwitchSum{q0: getQ(), q1: getQ(), p0: getP(), p1: getP(), empty: true}
	}
	var h *decomposition
	defer func() {
		for _, p := range scratchQ {
			rQ.PutPoly(p)
		}
		for _, p := range scratchP {
			rP.PutPoly(p)
		}
		if h != nil {
			h.Release()
		}
	}()

	// Baby steps over Q∪P: rot_b(x)·P = (P·φ_b(c0) + d0, d1) with (d0, d1)
	// the undivided key switch of φ_b(c1); the input itself is (P·c0, P·c1)
	// over Q and zero over P, which is never stored.
	liftedC0 := getQ()
	be.MulByP(ct.Value[0], liftedC0)
	phi := getQ()
	babies := map[int]*keySwitchSum{}
	for _, t := range terms {
		b := t.Baby
		if babies[b] != nil {
			continue
		}
		if b == 0 {
			baby := &keySwitchSum{q0: liftedC0, q1: getQ()}
			be.MulByP(ct.Value[1], baby.q1)
			babies[b] = baby
			continue
		}
		baby := getSum()
		babies[b] = baby
		if h == nil {
			h = ev.decomposeForKeySwitch(ct.Value[1])
		}
		key, idx, err := ev.galoisKey(rQ.GaloisElementForRotation(b))
		if err != nil {
			return nil, err
		}
		if err := ev.addKeySwitch(baby, h, idx, &key.SwitchingKey); err != nil {
			return nil, err
		}
		rQ.AutomorphismNTT(liftedC0, idx, phi)
		rQ.Add(baby.q0, phi, baby.q0)
	}
	if h != nil {
		h.Release()
		h = nil
	}

	sum := getSum() // Σ over Q∪P of every group, both halves
	for _, p := range []*ring.Poly{sum.q0, sum.q1, sum.p0, sum.p1} {
		p.Zero()
	}
	sum.empty = false
	group, phiP := getSum(), getP()
	var ptsQ, ptsP, b0q, b0p, b1q, b1p []*ring.Poly
	for start := 0; start < len(terms); {
		g := terms[start].Giant
		ptsQ, ptsP, b0q, b0p, b1q, b1p = ptsQ[:0], ptsP[:0], b0q[:0], b0p[:0], b1q[:0], b1p[:0]
		end := start
		for ; end < len(terms) && terms[end].Giant == g; end++ {
			t, baby := terms[end], babies[terms[end].Baby]
			ptsQ, b0q, b1q = append(ptsQ, t.Mask.Value), append(b0q, baby.q0), append(b1q, baby.q1)
			if t.Baby != 0 {
				ptsP, b0p, b1p = append(ptsP, t.Mask.ValueP), append(b0p, baby.p0), append(b1p, baby.p1)
			}
		}
		start = end
		if g == 0 {
			rQ.InnerProductAdd(ptsQ, b0q, sum.q0)
			rP.InnerProductAdd(ptsP, b0p, sum.p0)
			rQ.InnerProductAdd(ptsQ, b1q, sum.q1)
			rP.InnerProductAdd(ptsP, b1p, sum.p1)
			continue
		}
		rQ.InnerProduct(ptsQ, b0q, group.q0)
		rP.InnerProduct(ptsP, b0p, group.p0)
		rQ.InnerProduct(ptsQ, b1q, group.q1)
		rP.InnerProduct(ptsP, b1p, group.p1)
		// rot_g(u0, u1) = (φ(u0) + d0, d1), (d0, d1) the key switch of φ(u1):
		// φ(u0) needs no division of its own, u1 must leave Q∪P to be
		// decomposed.
		key, idx, err := ev.galoisKey(rQ.GaloisElementForRotation(g))
		if err != nil {
			return nil, err
		}
		rQ.AutomorphismNTT(group.q0, idx, phi)
		rQ.Add(sum.q0, phi, sum.q0)
		rP.AutomorphismNTT(group.p0, idx, phiP)
		rP.Add(sum.p0, phiP, sum.p0)
		t0 := time.Now()
		be.ModDownNTT(group.q1, group.p1)
		ev.observe(kswork.PolyModDown, t0)
		rQ.AutomorphismNTT(group.q1, idx, phi)
		hg := ev.decomposeForKeySwitch(phi)
		err = ev.addKeySwitch(sum, hg, nil, &key.SwitchingKey)
		hg.Release()
		if err != nil {
			return nil, err
		}
	}
	ev.modDown(sum)
	return ev.Rescale(&Ciphertext{Value: []*ring.Poly{sum.q0, sum.q1}, Scale: ct.Scale * ptScale})
}
