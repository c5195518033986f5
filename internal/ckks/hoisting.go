package ckks

import (
	"fmt"
	"time"

	"antace/internal/par"
	"antace/internal/ring"
)

// Fused-kernel op names, as attributed by the KernelObserver. These are
// string-equal to the internal/polyir opcode constants (OpDecompModUp,
// OpModMulAdd, OpModDown) — importing polyir here would cycle through
// ckksir, so the equality is asserted by a test in polyir instead.
const (
	opDecompModUp = "poly.decomp_modup"
	opModMulAdd   = "poly.hw_modmuladd"
	opModDown     = "poly.mod_down"
)

// observe reports one fused-kernel execution to the evaluator's
// KernelObserver, if any.
func (ev *Evaluator) observe(op string, start time.Time) {
	if ev.KernelObserver != nil {
		ev.KernelObserver(op, time.Since(start))
	}
}

// Hoisted rotations (Halevi–Shoup): the expensive part of a rotation is
// decomposing c1 into key-switching digits (INTT, base extension, forward
// NTTs). Digit decomposition commutes with Galois automorphisms, so every
// rotation is run as decompose c1, permute the digits, take the key
// inner product, divide by P — and the rotations of one ciphertext can
// share its decomposition: each then only permutes, multiplies by its key
// and mod-downs. A rotation's bytes do not depend on whether its
// decomposition was shared, because the decomposition is a deterministic
// function of c1. The baby-step/giant-step kernel (EvaluateBSGS: linear
// layers and the bootstrapping DFTs) shares it across its baby steps.

// decomposition holds the NTT-domain digit decomposition of one
// ciphertext's c1 over the basis Q∪P. Its polynomials are pooled
// scratch: whoever ends up holding the decomposition must call Release.
type decomposition struct {
	level  int
	rQ, rP *ring.Ring
	tQ     []*ring.Poly // per digit, rows 0..level
	tP     []*ring.Poly // per digit, all P rows
}

// Release returns the decomposition's polynomials to the ring pools. It
// is idempotent.
func (h *decomposition) Release() {
	for _, p := range h.tQ {
		h.rQ.PutPoly(p)
	}
	for _, p := range h.tP {
		h.rP.PutPoly(p)
	}
	h.tQ, h.tP = nil, nil
}

// decomposeForKeySwitch computes the shared digit decomposition of c1
// (NTT domain, at its level) with the fused decomp_modup kernel: each
// digit is decomposed, base-extended and forward-NTT'd row by row
// without materialising a coefficient-domain intermediate.
func (ev *Evaluator) decomposeForKeySwitch(c1 *ring.Poly) *decomposition {
	t0 := time.Now()
	params := ev.params
	rQ, rP := params.RingQ(), params.RingP()
	be := params.BasisExtender()
	level := c1.Level()
	alpha := params.Alpha()
	digits := (level + 1 + alpha - 1) / alpha

	c1c := rQ.GetPolyNoZero(level)
	c1.Copy(c1c)
	rQ.INTT(c1c, c1c)

	h := &decomposition{level: level, rQ: rQ, rP: rP}
	for d := 0; d < digits; d++ {
		start := d * alpha
		end := start + alpha
		if end > level+1 {
			end = level + 1
		}
		tQ := rQ.GetPolyNoZero(level)
		tP := rP.GetPolyNoZero(rP.MaxLevel())
		be.DecompModUpNTT(c1c, c1, start, end, level, tQ, tP)
		h.tQ = append(h.tQ, tQ)
		h.tP = append(h.tP, tP)
	}
	rQ.PutPoly(c1c)
	ev.observe(opDecompModUp, t0)
	return h
}

// keySwitchSum is a key switch before its division by P: the two halves
// of Σ ⟨digits, key⟩ over the basis Q∪P, NTT domain. The division is
// linear up to rounding, so several switches (a linear transform's
// giant steps) may be summed here and divided once. Its polynomials are
// pooled scratch.
type keySwitchSum struct {
	q0, q1 *ring.Poly // rows 0..level
	p0, p1 *ring.Poly // all P rows
	empty  bool
}

// newKeySwitchSum takes the four accumulators from the ring pools. They
// are not zeroed: the first add overwrites them.
func (ev *Evaluator) newKeySwitchSum(level int) *keySwitchSum {
	rQ, rP := ev.params.RingQ(), ev.params.RingP()
	return &keySwitchSum{
		q0: rQ.GetPolyNoZero(level), q1: rQ.GetPolyNoZero(level),
		p0: rP.GetPolyNoZero(rP.MaxLevel()), p1: rP.GetPolyNoZero(rP.MaxLevel()),
		empty: true,
	}
}

// release returns the sum's polynomials to the ring pools.
func (s *keySwitchSum) release(rQ, rP *ring.Ring) {
	rQ.PutPoly(s.q0)
	rQ.PutPoly(s.q1)
	rP.PutPoly(s.p0)
	rP.PutPoly(s.p1)
	*s = keySwitchSum{}
}

// addKeySwitch accumulates the evaluation-key inner product of a
// decomposition, read through the automorphism index table idx (nil for
// none): the fused hw_modmuladd kernel, 128-bit lazy accumulation with
// one reduction per digit sum, the running sum entering the same
// accumulator. Permuting the digits inside the product is what makes a
// decomposition shareable between rotations.
func (ev *Evaluator) addKeySwitch(sum *keySwitchSum, h *decomposition, idx []int, swk *SwitchingKey) error {
	rQ, rP := ev.params.RingQ(), ev.params.RingP()
	nd := len(h.tQ)
	if nd > len(swk.BQ) {
		return fmt.Errorf("ckks: switching key has %d digits, need %d", len(swk.BQ), nd)
	}
	t0 := time.Now()
	acc := !sum.empty
	sum.empty = false
	rQ.InnerProductPermuted(h.tQ, idx, swk.BQ[:nd], sum.q0, acc)
	rP.InnerProductPermuted(h.tP, idx, swk.BP[:nd], sum.p0, acc)
	rQ.InnerProductPermuted(h.tQ, idx, swk.AQ[:nd], sum.q1, acc)
	rP.InnerProductPermuted(h.tP, idx, swk.AP[:nd], sum.p1, acc)
	ev.observe(opModMulAdd, t0)
	return nil
}

// modDown divides the sum by P with the fused ModDownNTT pass, leaving
// the result in its Q halves.
func (ev *Evaluator) modDown(sum *keySwitchSum) {
	be := ev.params.BasisExtender()
	// The two output halves are independent pipelines; run them as two
	// coarse tasks on top of the limb-level parallelism inside each.
	t0 := time.Now()
	par.Do(
		func() { be.ModDownNTT(sum.q0, sum.p0) },
		func() { be.ModDownNTT(sum.q1, sum.p1) },
	)
	ev.observe(opModDown, t0)
}

// keySwitchHoisted finishes one key switch from a decomposition read
// through idx (nil for none): inner product, then the divide-by-P tail.
// The returned polynomials are pooled scratch at the decomposition's
// level, owned by the caller.
func (ev *Evaluator) keySwitchHoisted(h *decomposition, idx []int, swk *SwitchingKey) (d0, d1 *ring.Poly, err error) {
	sum := ev.newKeySwitchSum(h.level)
	if err = ev.addKeySwitch(sum, h, idx, swk); err == nil {
		ev.modDown(sum)
		d0, d1, sum.q0, sum.q1 = sum.q0, sum.q1, nil, nil
	}
	sum.release(ev.params.RingQ(), ev.params.RingP())
	return d0, d1, err
}

// automorphism is the one rotation path: ct mapped by the Galois element
// gal. φ(ct) decrypts under φ(s); the key switch of φ(c1) — the permuted
// digits of c1's decomposition times the key, divided by P — takes it
// back to s: (φ(c0) + d0, d1).
func (ev *Evaluator) automorphism(ct *Ciphertext, gal uint64) (*Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, fmt.Errorf("ckks: rotation requires a degree-1 ciphertext")
	}
	h := ev.decomposeForKeySwitch(ct.Value[1])
	defer h.Release()
	return ev.automorphismHoisted(ct, h, gal)
}

// automorphismHoisted is automorphism from h, the decomposition of ct's
// c1, which it may share with other automorphisms of ct: the bytes are
// the same either way.
func (ev *Evaluator) automorphismHoisted(ct *Ciphertext, h *decomposition, gal uint64) (*Ciphertext, error) {
	level := ct.Level()
	if len(h.tQ) == 0 {
		return nil, fmt.Errorf("ckks: rotation from a released decomposition")
	}
	if h.level != level {
		return nil, fmt.Errorf("ckks: decomposition at level %d does not belong to a level-%d ciphertext", h.level, level)
	}
	key, idx, err := ev.galoisKey(gal)
	if err != nil {
		return nil, err
	}
	d0, d1, err := ev.keySwitchHoisted(h, idx, &key.SwitchingKey)
	if err != nil {
		return nil, err
	}
	rQ := ev.params.RingQ()
	out := &Ciphertext{Value: []*ring.Poly{rQ.GetPolyNoZero(level), d1}, Scale: ct.Scale}
	rQ.AutomorphismNTT(ct.Value[0], idx, out.Value[0])
	rQ.Add(out.Value[0], d0, out.Value[0])
	rQ.PutPoly(d0)
	return out, nil
}
