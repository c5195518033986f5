// Package costmodel turns a compiled CKKS module into per-image
// inference time and memory estimates at arbitrary ring degree. It
// prices the expansion every reader shares (kswork.Geometry.Expand,
// walked over a program by ckksir.Walk): an NTT row at N·logN
// butterflies, a pointwise pass at N coefficients per row, a fused
// key-switching kernel by the units kswork counts. Its five constants are
// calibrated by microbenchmarks of the actual runtime at a reduced ring
// degree, or recalibrated from the live per-opcode aggregates a running
// aced exports at /v1/profilez (see fromprofile.go). Figures 6 and 7 of
// the paper are regenerated by evaluating the model over the exact
// compiled instruction schedules of ANT-ACE and the Expert baseline, and
// the plan enumerator in internal/core ranks candidate compilations
// under the same model.
package costmodel

import (
	"fmt"
	"math"
	"time"

	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/poly"
	"antace/internal/ring"
)

// Calibration holds measured per-element constants (seconds). Two price
// the primitives outside key switching, NTTs and pointwise passes; the
// three *PerUnit constants price the fused key-switch kernels the runtime
// executes (poly.decomp_modup / poly.hw_modmuladd / poly.mod_down) in the
// units kswork counts. Every source — DefaultCalibration, Calibrate and
// FromProfile seeded from either — sets all five.
type Calibration struct {
	// NTTPerButterfly is seconds per N*logN butterfly element.
	NTTPerButterfly float64 `json:"ntt_per_butterfly"`
	// PointwisePerCoeff is seconds per modular multiply-accumulate.
	PointwisePerCoeff float64 `json:"pointwise_per_coeff"`

	// ModUpPerUnit prices poly.decomp_modup: one unit is one element of
	// Σ_digits (rk−K)·N·(K+logN) — per digit of K primes, every output row
	// but the digit's own K (copied) is base-converted (K muladds per
	// coefficient) and forward-NTT'd (logN butterflies).
	ModUpPerUnit float64 `json:"modup_per_unit,omitempty"`
	// MulAddPerUnit prices poly.hw_modmuladd: one unit is one lazy
	// 128-bit multiply-accumulate; the evaluation-key inner product is
	// 2·rk·N sums of d of them (two key halves over Q and P), each sum
	// closed by reductions worth macReduceWeight units apiece.
	MulAddPerUnit float64 `json:"muladd_per_unit,omitempty"`
	// ModDownPerUnit prices poly.mod_down: one unit is one element of
	// 2·(K·N·logN + r·N·(logN + convWeight·K)) — per ciphertext half,
	// the P rows are inverse-transformed and every Q row receives the P
	// part base-converted from K terms and transformed forward.
	ModDownPerUnit float64 `json:"moddown_per_unit,omitempty"`

	// PolyScale and BootstrapScale are composite corrections applied to
	// the structural ckks.poly / ckks.bootstrap estimates; 0 (or 1)
	// means no correction. FromProfile's schedule fit sets them so the
	// macro-op predictions track the live measurements.
	PolyScale      float64 `json:"poly_scale,omitempty"`
	BootstrapScale float64 `json:"bootstrap_scale,omitempty"`

	// Source records where the constants came from: "default",
	// "microbench" (Calibrate) or "profile" (FromProfile).
	Source string `json:"source,omitempty"`

	// KeySwitchMeasuredSec / KeySwitchPredictedSec are the end-to-end
	// cross-check Calibrate performs: one real eval.Rotate timed against
	// the model's prediction from the freshly derived constants. A
	// calibration whose ratio strays far from 1 is suspect.
	KeySwitchMeasuredSec  float64 `json:"keyswitch_measured_sec,omitempty"`
	KeySwitchPredictedSec float64 `json:"keyswitch_predicted_sec,omitempty"`
}

// DefaultCalibration provides constants measured once on the reference
// machine (used when the caller skips live calibration). Refreshed for
// the fused-kernel runtime; Calibrate or FromProfile adapt them to the
// current machine.
func DefaultCalibration() Calibration {
	return Calibration{
		NTTPerButterfly:   1.5e-9,
		PointwisePerCoeff: 6.7e-9,
		ModUpPerUnit:      1.6e-9,
		MulAddPerUnit:     2.4e-9,
		ModDownPerUnit:    1.5e-9,
		// No BootstrapScale: the structural bootstrap estimate follows the
		// circuit the runtime executes, so it stays in proportion to the
		// other categories. serve's differential suite (reduced ResNet-20)
		// holds the three Figure 6 categories' predicted/measured ratios
		// within 2x of one another; their absolute level is the machine's
		// speed. FitSchedule sets a live correction when a profile is
		// available.
		Source: "default",
	}
}

// calWarmup, calRounds and calIters shape every microbenchmark loop in
// Calibrate: calWarmup discarded iterations, then calRounds timed rounds
// of calIters iterations, of which the fastest counts. The warmup
// matters: the first NTT call on a fresh ring builds twiddle tables, and
// the first pass over any pooled polynomial faults its pages in. The
// fastest round matters on a shared machine: a loop of a few
// milliseconds that the scheduler preempts once reads up to several
// times its time, and one such window in a mean had inflated a constant
// enough to put a whole Figure 6 category past twice its measurement.
const (
	calWarmup = 8
	calRounds = 7
	calIters  = 10
)

// bench times fn after calWarmup discarded iterations and returns the
// seconds per iteration of the fastest of calRounds rounds.
func bench(fn func()) float64 {
	for i := 0; i < calWarmup; i++ {
		fn()
	}
	best := math.Inf(1)
	for r := 0; r < calRounds; r++ {
		start := time.Now()
		for i := 0; i < calIters; i++ {
			fn()
		}
		best = math.Min(best, time.Since(start).Seconds())
	}
	return best / calIters
}

// Calibrate microbenchmarks the runtime at a small ring degree and
// derives every constant: the NTT and pointwise primitives and the three
// fused key-switch kernels. It finishes with an end-to-end cross-check — a
// real rotation timed against the model's prediction — recorded in the
// returned Calibration.
func Calibrate() (Calibration, error) {
	lit := ckks.ParametersLiteral{LogN: 12, LogQ: []int{50, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return Calibration{}, err
	}
	rQ, rP := params.RingQ(), params.RingP()
	be := params.BasisExtender()
	level := rQ.MaxLevel()
	n := float64(rQ.N)
	logN := float64(params.LogN())
	r := level + 1 // Q residues
	geom := &Model{Geometry: kswork.Geometry{LogN: params.LogN(), K: len(rP.Moduli)}}
	d := geom.Digits(level)
	rows := float64(r)

	p := rQ.NewPoly(level)
	s := ring.NewSampler(rQ, ring.SeedFromInt(1))
	s.Uniform(p)

	var c Calibration
	c.Source = "microbench"
	// NTT: N·logN butterflies per residue row.
	nttTime := bench(func() { rQ.NTT(p, p) })
	c.NTTPerButterfly = nttTime / (n * logN * rows)

	// Pointwise multiply-accumulate: N per residue row.
	q := p.CopyNew()
	out := rQ.NewPoly(level)
	pwTime := bench(func() { rQ.MulCoeffsThenAdd(p, q, out) })
	c.PointwisePerCoeff = pwTime / (n * rows)

	// Fused kernels, timed on the same geometry the evaluator runs them
	// and divided by the work the model counts for that geometry:
	// poly.decomp_modup (every digit: convert + forward-NTT each output
	// row while cache-hot, the digit's own rows copied) ...
	K := geom.K
	fuQ := rQ.NewPoly(level)
	fuP := rP.NewPoly(K - 1)
	modUpTime := bench(func() {
		for start := 0; start < r; start += K {
			be.DecompModUpNTT(p, p, start, min(start+K, r), level, fuQ, fuP)
		}
	})
	c.ModUpPerUnit = modUpTime / geom.ModUp(level)

	// ... poly.hw_modmuladd (the d-term evaluation-key inner product,
	// one lazy 128-bit accumulator per coefficient) ...
	as := make([]*ring.Poly, d)
	bs := make([]*ring.Poly, d)
	for i := range as {
		as[i] = p.CopyNew()
		bs[i] = q.CopyNew()
	}
	ipOut := rQ.NewPoly(level)
	ipTime := bench(func() { rQ.InnerProduct(as, bs, ipOut) })
	c.MulAddPerUnit = ipTime / (kswork.MAC(d) * rows * n)

	// ... and poly.mod_down (P rows inverse-transformed, then per Q row
	// conversion → NTT → subtract → P⁻¹ in one pass; one call covers one
	// ciphertext half).
	mdQ := p.CopyNew()
	mdP := rP.NewPoly(K - 1)
	sP := ring.NewSampler(rP, ring.SeedFromInt(2))
	sP.Uniform(mdP)
	mdTime := bench(func() { be.ModDownNTT(mdQ, mdP) })
	c.ModDownPerUnit = 2 * mdTime / geom.ModDown(level)

	// End-to-end cross-check: the derived constants must reproduce a
	// measured rotation, priced as InferenceCost prices one.
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(7))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{Galois: kg.GenGaloisKeys([]int{1}, false, sk)}
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptorFromSecretKey(params, sk)
	eval := ckks.NewEvaluator(params, keys)
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = float64(i%13)/13 - 0.5
	}
	pt, err := enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		return c, err
	}
	ct := encryptor.Encrypt(pt)
	rotTime := bench(func() {
		if _, rerr := eval.Rotate(ct, 1); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return c, err
	}
	geom.Cal = c
	c.KeySwitchMeasuredSec = rotTime
	c.KeySwitchPredictedSec = geom.price(ckksir.OpRotate, level, kswork.Split{}, nil).total()
	return c, nil
}

// CrossCheckErr reports how far the calibration's end-to-end key-switch
// cross-check strayed from its prediction, as |log2(measured/predicted)|
// (0 = perfect agreement, 1 = off by 2×). Returns an error when the
// calibration carries no cross-check.
func (c Calibration) CrossCheckErr() (float64, error) {
	if c.KeySwitchMeasuredSec <= 0 || c.KeySwitchPredictedSec <= 0 {
		return 0, fmt.Errorf("costmodel: calibration has no key-switch cross-check")
	}
	return math.Abs(math.Log2(c.KeySwitchMeasuredSec / c.KeySwitchPredictedSec)), nil
}

// Model prices a program's primitives in seconds at a given ring
// configuration: the embedded geometry expands instructions, the
// calibration prices what they expand into.
type Model struct {
	Cal Calibration
	kswork.Geometry
}

func (m *Model) n() float64 { return math.Exp2(float64(m.LogN)) }

// cost is a price split by what calibrates it: the transforms, the
// pointwise passes, and the fused kernels with the mask sums.
type cost struct{ ntt, pw, kern float64 }

func (c cost) total() float64 { return c.ntt + c.pw + c.kern }

func (c cost) plus(o cost) cost { return cost{c.ntt + o.ntt, c.pw + o.pw, c.kern + o.kern} }

// prim prices one primitive of an expansion.
func (m *Model) prim(p kswork.Prim) cost {
	coeffs := m.n() * float64(p.Rows*p.Count)
	switch p.Op {
	case kswork.PolyNTT, kswork.PolyINTT:
		return cost{ntt: m.Cal.NTTPerButterfly * coeffs * float64(m.LogN)}
	case kswork.PolyDecompModUp:
		return cost{kern: m.Cal.ModUpPerUnit * p.Units}
	case kswork.PolyModMulAdd, kswork.PolyMaskSum:
		return cost{kern: m.Cal.MulAddPerUnit * p.Units}
	case kswork.PolyModDown:
		return cost{kern: m.Cal.ModDownPerUnit * p.Units}
	}
	return cost{pw: m.Cal.PointwisePerCoeff * coeffs}
}

// price prices one instruction entering at the given level (a linear
// transform by its split s, a polynomial by its plan pl): the sum of its
// expansion's primitives.
func (m *Model) price(op string, level int, s kswork.Split, pl *poly.Plan) (c cost) {
	m.Expand(op, level, s, pl, func(p kswork.Prim) { c = c.plus(m.prim(p)) })
	return c
}

// Category buckets for Figure 6.
type Category int

const (
	CatConv Category = iota
	CatBootstrap
	CatReLU
	CatOther
)

func (c Category) String() string {
	return [...]string{"Conv", "Bootstrap", "ReLU", "Other"}[c]
}

// Breakdown is a per-category cost (seconds). The four categories are
// paid by every inference. Setup is paid once per model: encoding the
// weights, which a prepared program does on first touch and keeps.
type Breakdown struct {
	Conv, Bootstrap, ReLU, Other float64
	Setup                        float64
}

// Total sums the per-inference categories — what a plan search ranks
// on. The one-time Setup is not part of it.
func (b Breakdown) Total() float64 { return b.Conv + b.Bootstrap + b.ReLU + b.Other }

// Add accumulates into a category.
func (b *Breakdown) Add(cat Category, v float64) {
	switch cat {
	case CatConv:
		b.Conv += v
	case CatBootstrap:
		b.Bootstrap += v
	case CatReLU:
		b.ReLU += v
	default:
		b.Other += v
	}
}

// Get reads one category.
func (b Breakdown) Get(cat Category) float64 {
	switch cat {
	case CatConv:
		return b.Conv
	case CatBootstrap:
		return b.Bootstrap
	case CatReLU:
		return b.ReLU
	}
	return b.Other
}

// scaleOr applies a composite correction scale (0 means none).
func scaleOr(v, s float64) float64 {
	if s > 0 {
		return v * s
	}
	return v
}

// InferenceCost walks a compiled CKKS module (ckksir.Walk) and returns
// the per-image inference time breakdown at the model's ring degree,
// with the one-time encoding of the weights apart.
func (m *Model) InferenceCost(res *ckksir.Result) Breakdown {
	var b Breakdown
	err := ckksir.Walk(res, m.Geometry, func(in *ir.Instr, p kswork.Prim) {
		c := m.prim(p).total()
		switch in.Op {
		case ckksir.OpEncode:
			b.Setup += c
			return
		case ckksir.OpBootstrap:
			c = scaleOr(c, m.Cal.BootstrapScale)
		case ckksir.OpPoly:
			c = scaleOr(c, m.Cal.PolyScale)
		}
		b.Add(CategoryOfOp(in.Op), c)
	})
	if err != nil {
		// A module that reached the cost model has been lowered and
		// verified, so only a compiler bug leaves it unexpandable.
		panic(fmt.Sprintf("costmodel: %v", err))
	}
	return b
}

// CategoryOfOp assigns the Figure-6 bucket for a ckksir opcode string —
// the same mapping InferenceCost uses, exported so measured /v1/profilez
// rows can be bucketed identically (see MeasuredBreakdown).
func CategoryOfOp(op string) Category {
	switch op {
	case ckksir.OpPoly:
		return CatReLU
	case ckksir.OpBootstrap:
		return CatBootstrap
	case ckksir.OpMulConst:
		return CatReLU // normalisations and negations sit on the ReLU path
	case ckksir.OpMul, ckksir.OpRelin:
		return CatReLU // ct-ct products only occur in the ReLU combine
	}
	return CatConv
}

// Memory estimates (Figure 7), in bytes.
type Memory struct {
	GaloisKeys float64
	RelinKey   float64
	Weights    float64
	WorkingSet float64
}

// Total sums the components.
func (mem Memory) Total() float64 {
	return mem.GaloisKeys + mem.RelinKey + mem.Weights + mem.WorkingSet
}

// KeyShare returns the CKKS-keys fraction of the total.
func (mem Memory) KeyShare() float64 {
	return (mem.GaloisKeys + mem.RelinKey) / mem.Total()
}

// keyBytes returns the size of one switching key whose digits cover the
// chain up to `level` (inclusive).
func (m *Model) keyBytes(level int) float64 {
	return 8 * m.KeyCoeffs(level)
}

// MemoryCost estimates the server-side memory of a compiled program.
// When truncateKeys is set, every program rotation key is generated only
// up to the level it is actually used at (ANT-ACE's data-flow key
// analysis); otherwise all keys span the whole chain (the hand-written
// baseline). bootKeys counts the bootstrap-circuit rotations, always at
// full chain level.
func (m *Model) MemoryCost(res *ckksir.Result, bootKeys int, truncateKeys bool) Memory {
	n := m.n()
	maxLevel := len(res.Literal.LogQ) - 1
	var mem Memory
	for _, k := range ckksir.RotationKeys(res.Module.Main()) {
		level := maxLevel
		if truncateKeys {
			level = k.Level
		}
		mem.GaloisKeys += m.keyBytes(level)
	}
	mem.GaloisKeys += float64(bootKeys+1) * m.keyBytes(maxLevel) // + conjugation
	mem.RelinKey = m.keyBytes(maxLevel)
	// Encoded plaintexts: every encode op stores level+1 residues, a
	// linear layer's masks the special primes' as well.
	for _, in := range res.Module.Main().Body {
		if in.Op == ckksir.OpEncode {
			mem.Weights += float64(ckksir.PlainRows(in, m.K)) * n * 8
		}
	}
	// Working set: a handful of live ciphertexts at the input level.
	mem.WorkingSet = 16 * 2 * float64(res.InputLevel+1) * n * 8
	return mem
}
