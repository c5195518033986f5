package ckks

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"antace/internal/fault"
	"antace/internal/nt"
	"antace/internal/par"
	"antace/internal/ring"
)

// Evaluator performs homomorphic operations on ciphertexts. It is not
// safe for concurrent use (it owns the automorphism index cache and
// pooled scratch mid-operation); create one per goroutine. Evaluators are
// cheap — parameters, keys and the ring-level scratch pools are shared —
// and each operation internally fans its RNS-limb work out over the
// internal/par worker pool, so a single Evaluator already uses every
// core.
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeySet

	autIndexCache map[uint64][]int

	// KernelObserver, when non-nil, receives the duration of every fused
	// kernel execution (poly.decomp_modup, poly.hw_modmuladd,
	// poly.mod_down) on the evaluator's goroutine. The VM wires it to the
	// run profile so /v1/profilez can attribute key-switch time below the
	// instruction level.
	KernelObserver func(op string, d time.Duration)
}

// NewEvaluator creates an evaluator with the given key set (which may be
// nil for evaluators that only add/multiply by plaintexts).
func NewEvaluator(params *Parameters, keys *EvaluationKeySet) *Evaluator {
	return &Evaluator{params: params, keys: keys, autIndexCache: map[uint64][]int{}}
}

// Params returns the evaluator's parameters.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// Keys returns the evaluation-key set the evaluator was built with
// (nil for plaintext-only evaluators).
func (ev *Evaluator) Keys() *EvaluationKeySet { return ev.keys }

// scaleClose reports whether two scales agree to within 1 part in 2^20.
func scaleClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-20)
}

// newCiphertext takes a ciphertext of the given degree and level from
// the ring pool without zeroing it: the caller writes every row.
func (ev *Evaluator) newCiphertext(degree, level int, scale float64) *Ciphertext {
	rQ := ev.params.RingQ()
	ct := &Ciphertext{Value: make([]*ring.Poly, degree+1), Scale: scale}
	for i := range ct.Value {
		ct.Value[i] = rQ.GetPolyNoZero(level)
	}
	return ct
}

// copyAt returns a pooled copy of ct truncated to level (at most its
// own): exact RNS modulus switching, the scale unchanged.
func (ev *Evaluator) copyAt(ct *Ciphertext, level int) *Ciphertext {
	out := ev.newCiphertext(ct.Degree(), level, ct.Scale)
	for i, p := range ct.Value {
		for r, row := range out.Value[i].Coeffs {
			copy(row, p.Coeffs[r])
		}
	}
	return out
}

// alignLevels views both ciphertexts at their common level. The view of
// the higher one shares its rows, so neither may be written through.
func alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext) {
	l := min(a.Level(), b.Level())
	return levelView(a, l), levelView(b, l)
}

// levelView returns ct seen at level (at most its own), sharing its rows.
func levelView(ct *Ciphertext, level int) *Ciphertext {
	if ct.Level() == level {
		return ct
	}
	view := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Scale: ct.Scale}
	for i, p := range ct.Value {
		view.Value[i] = &ring.Poly{Coeffs: p.Coeffs[:level+1]}
	}
	return view
}

// Add returns a + b. Scales must match; levels are aligned automatically.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if !scaleClose(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: addition scale mismatch: %g vs %g", a.Scale, b.Scale)
	}
	a, b = alignLevels(a, b)
	rQ := ev.params.RingQ()
	deg := max(a.Degree(), b.Degree())
	out := ev.newCiphertext(deg, a.Level(), math.Max(a.Scale, b.Scale))
	for i := 0; i <= deg; i++ {
		switch {
		case i <= a.Degree() && i <= b.Degree():
			rQ.Add(a.Value[i], b.Value[i], out.Value[i])
		case i <= a.Degree():
			a.Value[i].Copy(out.Value[i])
		default:
			b.Value[i].Copy(out.Value[i])
		}
	}
	return out, nil
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	nb := ev.Neg(b)
	return ev.Add(a, nb)
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	rQ := ev.params.RingQ()
	out := ev.newCiphertext(a.Degree(), a.Level(), a.Scale)
	for i := range a.Value {
		rQ.Neg(a.Value[i], out.Value[i])
	}
	return out
}

// AddPlain returns a + pt. The plaintext scale must match.
func (ev *Evaluator) AddPlain(a *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if !scaleClose(a.Scale, pt.Scale) {
		return nil, fmt.Errorf("ckks: plaintext addition scale mismatch: %g vs %g", a.Scale, pt.Scale)
	}
	out := ev.copyAt(a, min(a.Level(), pt.Level()))
	ev.params.RingQ().Add(out.Value[0], pt.Value, out.Value[0])
	return out, nil
}

// MulPlain returns a * pt; the output scale is the product of scales.
func (ev *Evaluator) MulPlain(a *Ciphertext, pt *Plaintext) *Ciphertext {
	rQ := ev.params.RingQ()
	out := ev.newCiphertext(a.Degree(), min(a.Level(), pt.Level()), a.Scale*pt.Scale)
	for i := range a.Value {
		rQ.MulCoeffs(a.Value[i], pt.Value, out.Value[i])
	}
	return out
}

// Mul returns the degree-2 tensor product a*b (no relinearisation).
// Inputs must be degree-1.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	if a.Degree() != 1 || b.Degree() != 1 {
		return nil, fmt.Errorf("ckks: Mul requires degree-1 inputs (got %d and %d); relinearise first", a.Degree(), b.Degree())
	}
	a, b = alignLevels(a, b)
	rQ := ev.params.RingQ()
	out := ev.newCiphertext(2, a.Level(), a.Scale*b.Scale)
	rQ.MulCoeffs(a.Value[0], b.Value[0], out.Value[0])
	// The middle term a0*b1 + a1*b0 is a two-digit inner product: one
	// fused pass with a single reduction per coefficient, no scratch poly.
	rQ.InnerProduct(
		[]*ring.Poly{a.Value[0], a.Value[1]},
		[]*ring.Poly{b.Value[1], b.Value[0]},
		out.Value[1],
	)
	rQ.MulCoeffs(a.Value[1], b.Value[1], out.Value[2])
	return out, nil
}

// MulRelin returns relin(a*b).
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	ct, err := ev.Mul(a, b)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(ct)
}

// Relinearize converts a degree-2 ciphertext back to degree 1 using the
// relinearisation key. A degree-1 ciphertext comes back as a copy: like
// every operation, Relinearize never returns its operand.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() == 1 {
		return ev.copyAt(ct, ct.Level()), nil
	}
	if ct.Degree() != 2 {
		return nil, fmt.Errorf("ckks: cannot relinearise degree-%d ciphertext", ct.Degree())
	}
	if ev.keys == nil || ev.keys.Rlk == nil {
		return nil, fmt.Errorf("ckks: no relinearisation key")
	}
	d0, d1, err := ev.keySwitch(ct.Value[2], &ev.keys.Rlk.SwitchingKey)
	if err != nil {
		return nil, err
	}
	// (c0 + d0, c1 + d1), summed into the key switch's pooled output.
	rQ := ev.params.RingQ()
	rQ.Add(ct.Value[0], d0, d0)
	rQ.Add(ct.Value[1], d1, d1)
	return &Ciphertext{Value: []*ring.Poly{d0, d1}, Scale: ct.Scale}, nil
}

// Rescale divides the ciphertext by its last prime, dropping one level
// and dividing the scale accordingly.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ferr := fault.Inject(fault.CKKSRescaleErr); ferr != nil {
		return nil, ferr
	}
	level := ct.Level()
	if level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale at level 0")
	}
	rQ := ev.params.RingQ()
	ql := rQ.Moduli[level]
	out := ev.newCiphertext(ct.Degree(), level-1, ct.Scale/float64(ql))
	for i := range ct.Value {
		if err := rQ.DivRoundByLastModulusNTT(ct.Value[i], out.Value[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DropLevel truncates the ciphertext by n levels in place (exact RNS
// modulus switching: the scale is unchanged). Dropping below level 0 is
// reported as an error — compiled programs can legitimately reach it
// when level tracking and runtime state diverge, and the serving layer
// must surface that as a request failure, not a crash.
func (ev *Evaluator) DropLevel(ct *Ciphertext, n int) error {
	if n <= 0 {
		return nil
	}
	level := ct.Level()
	if n > level {
		return fmt.Errorf("ckks: cannot drop %d levels from level %d", n, level)
	}
	for i := range ct.Value {
		ct.Value[i].Resize(level-n, ev.params.N())
	}
	return nil
}

// ScaleUp multiplies the ciphertext by the integer u and declares the
// scale multiplied by u: the underlying message is unchanged. This is the
// paper's "upscale" operation, used to align scales before additions.
func (ev *Evaluator) ScaleUp(ct *Ciphertext, u uint64) *Ciphertext {
	rQ := ev.params.RingQ()
	out := ev.newCiphertext(ct.Degree(), ct.Level(), ct.Scale*float64(u))
	for i := range ct.Value {
		rQ.MulScalar(ct.Value[i], u, out.Value[i])
	}
	return out
}

// constResidues rounds v to the nearest integer (via big.Int when |v|
// exceeds the exact float64 integer range) and returns its residues
// modulo the first level+1 primes.
func (ev *Evaluator) constResidues(v float64, level int) []uint64 {
	rQ := ev.params.RingQ()
	out := make([]uint64, level+1)
	if math.Abs(v) < float64(1<<62) {
		neg := v < 0
		u := uint64(math.Round(math.Abs(v)))
		for i := 0; i <= level; i++ {
			r := nt.BRedAdd(u, rQ.Mods[i])
			if neg {
				r = nt.Neg(r, rQ.Moduli[i])
			}
			out[i] = r
		}
		return out
	}
	b := new(big.Int)
	scaleToBig(v, b)
	tmp := new(big.Int)
	for i := 0; i <= level; i++ {
		tmp.Mod(b, new(big.Int).SetUint64(rQ.Moduli[i]))
		out[i] = tmp.Uint64()
	}
	return out
}

// MulByConst multiplies the ciphertext by a real constant, consuming no
// level: the constant is rounded at the given auxiliary scale and the
// ciphertext scale is multiplied by it. A follow-up Rescale restores the
// waterline.
func (ev *Evaluator) MulByConst(ct *Ciphertext, c float64, constScale float64) *Ciphertext {
	rQ := ev.params.RingQ()
	level := ct.Level()
	res := ev.constResidues(c*constScale, level)
	out := ev.newCiphertext(ct.Degree(), level, ct.Scale*constScale)
	for i := range ct.Value {
		src, dst := ct.Value[i], out.Value[i]
		par.For(level+1, par.Grain(rQ.N), func(start, end int) {
			for l := start; l < end; l++ {
				q := rQ.Moduli[l]
				u := res[l]
				uShoup := nt.ShoupPrec(u, q)
				a, b := src.Coeffs[l], dst.Coeffs[l]
				for j := range a {
					b[j] = nt.MulModShoup(a[j], u, uShoup, q)
				}
			}
		})
	}
	return out
}

// AddConst adds a real constant to the ciphertext without changing its
// scale or level: adding c*scale to every NTT evaluation point adds the
// constant polynomial, i.e. c to every slot.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	out := ev.copyAt(ct, ct.Level())
	ev.addConstTo(out, c)
	return out
}

// addConstTo is AddConst in place.
func (ev *Evaluator) addConstTo(ct *Ciphertext, c float64) {
	rQ := ev.params.RingQ()
	level := ct.Level()
	res := ev.constResidues(c*ct.Scale, level)
	par.For(level+1, par.Grain(rQ.N), func(start, end int) {
		for i := start; i < end; i++ {
			q := rQ.Moduli[i]
			u := res[i]
			row := ct.Value[0].Coeffs[i]
			for j := range row {
				row[j] = nt.Add(row[j], u, q)
			}
		}
	})
}

// Rotate cyclically rotates the slot vector by k positions (positive k
// rotates towards lower indices, matching the VECTOR IR roll semantics).
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) (*Ciphertext, error) {
	if k == 0 {
		return ev.copyAt(ct, ct.Level()), nil
	}
	return ev.automorphism(ct, ev.params.RingQ().GaloisElementForRotation(k))
}

// Conjugate applies complex conjugation to the slots, on the same path
// as a rotation.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	return ev.automorphism(ct, ev.params.RingQ().GaloisElementForConjugation())
}

// galoisKey returns the key for the Galois element gal and the element's
// NTT-domain index table over Q, built on first use.
func (ev *Evaluator) galoisKey(gal uint64) (*GaloisKey, []int, error) {
	key, err := ev.keys.GaloisKeyFor(gal)
	if err != nil {
		return nil, nil, err
	}
	idx, ok := ev.autIndexCache[gal]
	if !ok {
		idx = ev.params.RingQ().AutomorphismNTTIndex(gal)
		ev.autIndexCache[gal] = idx
	}
	return key, idx, nil
}

// keySwitch computes (d0, d1) with d0 + d1*s ~= c1*sFrom, for c1 in NTT
// domain at its level, using hybrid RNS-digit key switching. The returned
// polynomials are pooled scratch owned by the caller, who must release
// them with RingQ().PutPoly once consumed.
//
// It is the one-shot form of the hoisted path: decompose with the fused
// decomp_modup kernel, then inner-product and mod-down with the fused
// hw_modmuladd / mod_down kernels. Relinearisation and rotations
// therefore all execute the identical fused pipeline.
func (ev *Evaluator) keySwitch(c1 *ring.Poly, swk *SwitchingKey) (d0, d1 *ring.Poly, err error) {
	h := ev.decomposeForKeySwitch(c1)
	defer h.Release()
	return ev.keySwitchHoisted(h, nil, swk)
}
