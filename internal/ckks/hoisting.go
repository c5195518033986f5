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
// NTTs). Digit decomposition commutes with Galois automorphisms, so many
// rotations of the same ciphertext can share one decomposition: each
// rotation then only permutes the decomposed digits, multiplies by its
// key and mod-downs. Linear transforms (and the bootstrapping DFTs built
// on them) use this for their baby-step rotations.

// hoistedDecomp holds the NTT-domain digit decomposition of one
// polynomial over the basis Q∪P. Its polynomials are pooled scratch:
// whoever ends up holding the decomposition must call release.
type hoistedDecomp struct {
	level int
	tQ    []*ring.Poly // per digit, rows 0..level
	tP    []*ring.Poly // per digit, all P rows
}

// release returns the decomposition's polynomials to the ring pools.
func (h *hoistedDecomp) release(rQ, rP *ring.Ring) {
	for _, p := range h.tQ {
		rQ.PutPoly(p)
	}
	for _, p := range h.tP {
		rP.PutPoly(p)
	}
	h.tQ, h.tP = nil, nil
}

// decomposeForKeySwitch computes the shared digit decomposition of c1
// (NTT domain, at its level) with the fused decomp_modup kernel: each
// digit is decomposed, base-extended and forward-NTT'd row by row
// without materialising a coefficient-domain intermediate.
func (ev *Evaluator) decomposeForKeySwitch(c1 *ring.Poly) *hoistedDecomp {
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

	h := &hoistedDecomp{level: level}
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
// (possibly permuted) decomposition: the fused hw_modmuladd kernel,
// 128-bit lazy accumulation with one reduction per digit sum, the running
// sum entering the same accumulator.
func (ev *Evaluator) addKeySwitch(sum *keySwitchSum, h *hoistedDecomp, swk *SwitchingKey) error {
	rQ, rP := ev.params.RingQ(), ev.params.RingP()
	nd := len(h.tQ)
	if nd > len(swk.BQ) {
		return fmt.Errorf("ckks: switching key has %d digits, need %d", len(swk.BQ), nd)
	}
	t0 := time.Now()
	ipQ, ipP := rQ.InnerProductAdd, rP.InnerProductAdd
	if sum.empty {
		ipQ, ipP = rQ.InnerProduct, rP.InnerProduct
		sum.empty = false
	}
	ipQ(h.tQ, swk.BQ[:nd], sum.q0)
	ipP(h.tP, swk.BP[:nd], sum.p0)
	ipQ(h.tQ, swk.AQ[:nd], sum.q1)
	ipP(h.tP, swk.AP[:nd], sum.p1)
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

// applyKeySwitchHoisted finishes one key switch from a (possibly
// permuted) decomposition: inner product, then the divide-by-P tail.
// The returned polynomials are pooled scratch owned by the caller
// (release with RingQ().PutPoly).
func (ev *Evaluator) applyKeySwitchHoisted(h *hoistedDecomp, swk *SwitchingKey) (d0, d1 *ring.Poly, err error) {
	sum := ev.newKeySwitchSum(h.level)
	if err = ev.addKeySwitch(sum, h, swk); err == nil {
		ev.modDown(sum)
		d0, d1, sum.q0, sum.q1 = sum.q0, sum.q1, nil, nil
	}
	sum.release(ev.params.RingQ(), ev.params.RingP())
	return d0, d1, err
}

// permute applies a Galois automorphism (as an NTT index table; Q and P
// share the ring degree, hence the table) to every digit, yielding the
// decomposition of the rotated polynomial. The result is pooled scratch;
// release it after use.
func (h *hoistedDecomp) permute(rQ, rP *ring.Ring, idx []int) *hoistedDecomp {
	out := &hoistedDecomp{level: h.level}
	for d := range h.tQ {
		tQ := rQ.GetPolyNoZero(h.level)
		tP := rP.GetPolyNoZero(rP.MaxLevel())
		rQ.AutomorphismNTT(h.tQ[d], idx, tQ)
		rP.AutomorphismNTT(h.tP[d], idx, tP)
		out.tQ = append(out.tQ, tQ)
		out.tP = append(out.tP, tP)
	}
	return out
}

// RotateHoisted rotates ct by every offset in ks, sharing one digit
// decomposition across all of them. Offsets of 0 return a copy. The
// result map is keyed by offset.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, ks []int) (map[int]*Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, fmt.Errorf("ckks: hoisted rotation requires a degree-1 ciphertext")
	}
	out := make(map[int]*Ciphertext, len(ks))
	var h *hoistedDecomp
	rQ, rP := ev.params.RingQ(), ev.params.RingP()
	defer func() {
		if h != nil {
			h.release(rQ, rP)
		}
	}()
	level := ct.Level()
	for _, k := range ks {
		if _, done := out[k]; done {
			continue
		}
		if k == 0 {
			out[0] = ct.CopyNew()
			continue
		}
		if h == nil {
			h = ev.decomposeForKeySwitch(ct.Value[1])
		}
		key, idxQ, err := ev.galoisKey(rQ.GaloisElementForRotation(k))
		if err != nil {
			return nil, err
		}
		hk := h.permute(rQ, rP, idxQ)
		d0, d1, err := ev.applyKeySwitchHoisted(hk, &key.SwitchingKey)
		hk.release(rQ, rP)
		if err != nil {
			return nil, err
		}
		res := NewCiphertext(ev.params, 1, level)
		res.Scale = ct.Scale
		rQ.AutomorphismNTT(ct.Value[0], idxQ, res.Value[0])
		rQ.Add(res.Value[0], d0, res.Value[0])
		d1.Copy(res.Value[1])
		rQ.PutPoly(d0)
		rQ.PutPoly(d1)
		out[k] = res
	}
	return out, nil
}
