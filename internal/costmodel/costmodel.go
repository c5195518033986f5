// Package costmodel turns a compiled CKKS module into per-image
// inference time and memory estimates at arbitrary ring degree. Per-
// operation costs follow the textbook complexities (NTT: N log N per
// residue, pointwise: N per residue, key switching: digit count times
// basis size), with the leading constants calibrated by microbenchmarks
// of the actual runtime at a reduced ring degree, or recalibrated from
// the live per-opcode aggregates a running aced exports at /v1/profilez
// (see fromprofile.go). Figures 6 and 7 of the paper are regenerated by
// evaluating the model over the exact compiled instruction schedules of
// ANT-ACE and the Expert baseline, and the plan enumerator in
// internal/core ranks candidate compilations under the same model.
//
// Level convention: every Model method takes the level of the ciphertext
// *entering* the operation — a ciphertext at level L carries L+1
// Q-basis residues. InferenceCost translates from the schedule's
// Result.Level (which for rescale is the post-rescale level) at its call
// sites; see the comments there.
package costmodel

import (
	"fmt"
	"math"
	"time"

	"antace/internal/bootstrap"
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
	// the structural ckks.poly (opCost) / bootstrapCost estimates; 0 (or 1)
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
	c.KeySwitchPredictedSec, _ = geom.opCost(ckksir.OpRotate, level, kswork.Split{}, nil)
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

// Model evaluates op costs at a given ring configuration. The embedded
// geometry's methods count fused-kernel work; the Model's own price it
// in seconds.
type Model struct {
	Cal Calibration
	kswork.Geometry
}

func (m *Model) n() float64 { return math.Exp2(float64(m.LogN)) }

// ntt returns the cost of one NTT over r residues.
func (m *Model) ntt(r int) float64 {
	return m.Cal.NTTPerButterfly * m.n() * float64(m.LogN) * float64(r)
}

// pw returns the cost of one pointwise pass over r residues.
func (m *Model) pw(r int) float64 {
	return m.Cal.PointwisePerCoeff * m.n() * float64(r)
}

// fusedSeconds prices a count of fused-kernel work.
func (m *Model) fusedSeconds(w kswork.Work) float64 {
	return m.Cal.ModUpPerUnit*w.ModUp + m.Cal.MulAddPerUnit*w.MulAdd + m.Cal.ModDownPerUnit*w.ModDown
}

// KeySwitch returns the cost of one hybrid key switch of a ciphertext
// entering at the given level (level+1 Q residues): the decomposition,
// then the evaluation-key inner product and the division of both halves
// by P.
func (m *Model) KeySwitch(level int) float64 {
	return m.decompose(level) + m.Cal.MulAddPerUnit*m.MulAdd(level) + m.Cal.ModDownPerUnit*m.ModDown(level)
}

// decompose returns the cost of the decomposition a key switch starts
// from: the input INTT, then every digit decomposed into Q∪P and
// transformed.
func (m *Model) decompose(level int) float64 {
	return m.ntt(level+1) + m.Cal.ModUpPerUnit*m.ModUp(level)
}

// Rescale returns the cost of rescaling a 2-polynomial ciphertext
// entering at the given level (level+1 residues, dropping to level).
func (m *Model) Rescale(level int) float64 {
	r := level + 1
	return 2 * (m.ntt(1) + m.ntt(r-1) + 2*m.pw(r-1))
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

// InferenceCost walks a compiled CKKS module and returns the per-image
// inference time breakdown at the model's ring degree.
//
// Level translation: in.Result.Level is the level of each instruction's
// *result*. For every op except rescale that equals the input level (the
// ckksir lowering keeps the level across add/mul/rotate and rescales
// explicitly), so it is passed straight into the level-in methods. A
// rescale's Result.Level is the post-rescale level — the ciphertext
// entered one level higher, hence level+1. A linear layer and a
// polynomial are priced at their input's level, the fused kernel and the
// evaluation plan they run as.
func (m *Model) InferenceCost(res *ckksir.Result) Breakdown {
	var b Breakdown
	for _, in := range res.Module.Main().Body {
		level, split, plan, scale := in.Result.Level, kswork.Split{}, (*poly.Plan)(nil), 0.0
		switch in.Op {
		case ckksir.OpEncode:
			b.Setup += m.ntt(m.plainRows(in))
			continue
		case ckksir.OpBootstrap:
			b.Add(CatBootstrap, scaleOr(m.bootstrapCost(in.AttrInt("target", 1), bootParams(res)), m.Cal.BootstrapScale))
			continue
		case ckksir.OpRescale:
			level++ // entered at level+1, dropped to level
		case ckksir.OpLinear:
			level, split = in.Args[0].Level, ckksir.LinearSplit(in)
		case ckksir.OpPoly:
			level, plan, scale = in.Args[0].Level, polyPlan(in), m.Cal.PolyScale
		}
		if c, ok := m.opCost(in.Op, level, split, plan); ok {
			b.Add(CategoryOfOp(in.Op), scaleOr(c, scale))
		}
	}
	return b
}

// opCost prices one instruction entering at the given level — every
// program instruction InferenceCost prices and every instruction of the
// bootstrap circuit, and the price FromProfile fits constants against: a
// linear transform by its split s, a polynomial by its evaluation plan
// pl, every other instruction by its opcode alone. ok is false for the
// ops priced otherwise (encode, bootstrap) or free (level and scale
// bookkeeping).
//
// A linear transform is the fused baby-step/giant-step evaluation of s,
// as ckks.EvaluateBSGS runs a DFT stage or a ckks.linear
// (kswork.LinearTransform counts the kernels: one hoisted decomposition,
// a key product per baby step kept over Q∪P, the inner sums, per giant
// step half a division, a decomposition and a key product into the one
// accumulator that is divided at the end). On top of the kernels come
// the input transforms of the decompositions, one rescale, and the
// pointwise passes around the key products, priced as a rotation's slot
// permutation is: the input's halves lifted by P, each baby's permuted
// c0 added in, and each giant's c0 half permuted and added over Q∪P and
// its c1 half permuted over Q. A polynomial is every operation of its
// plan as the instruction it runs as, at the level the plan puts it.
func (m *Model) opCost(op string, level int, s kswork.Split, pl *poly.Plan) (cost float64, ok bool) {
	r := level + 1
	switch op {
	case ckksir.OpAdd, ckksir.OpAddPlain, ckksir.OpMulPlain, ckksir.OpMulConst:
		return 2 * m.pw(r), true
	case ckksir.OpMul:
		return 5 * m.pw(r), true
	case ckksir.OpRelin:
		return m.KeySwitch(level), true
	case ckksir.OpRotate:
		return m.KeySwitch(level) + 2*m.pw(r), true // plus the slot permutation
	case ckksir.OpRescale:
		return m.Rescale(level), true
	case ckksir.OpLinear:
		decomps := s.Giants
		if s.Babies > 0 {
			decomps++
		}
		passes := float64(1+2*s.Babies+3*s.Giants)*m.pw(r) + float64(2*s.Giants)*m.pw(m.K)
		if s.ZeroMasks > 0 {
			passes += m.pw(r)
		}
		return m.fusedSeconds(m.LinearTransform(s, level)) + float64(decomps)*m.ntt(r) + m.Rescale(level) + passes, true
	case ckksir.OpPoly:
		pl.Walk(func(st poly.Step, depth int) {
			c, _ := m.opCost(ckksir.PlanOps[st], level-depth, kswork.Split{}, nil)
			cost += c
		})
		return cost, true
	}
	return 0, false
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

// polyPlan returns the evaluation plan of one ckks.poly instruction. A
// module that reached the cost model has been lowered and verified, so
// only a compiler bug leaves the polynomial undecodable.
func polyPlan(in *ir.Instr) *poly.Plan {
	p, err := poly.FromAttrs(in.Attrs)
	if err != nil {
		panic(fmt.Sprintf("costmodel: %s: %v", in.Op, err))
	}
	return poly.NewPlan(p)
}

// plainRows returns the rows an encode instruction's plaintext has: its
// level's, and the special primes' for a linear layer's mask against a
// non-zero baby.
func (m *Model) plainRows(in *ir.Instr) int {
	if in.Attr("qp") == true {
		return in.AttrInt("level", 0) + 1 + m.K
	}
	return in.AttrInt("level", 0) + 1
}

// bootstrapCost prices the circuit the runtime executes, with the DFT
// stage counts the program was compiled with, instruction by instruction
// of its schedule (bootstrap.Schedule).
func (m *Model) bootstrapCost(target int, bp bootstrap.Parameters) float64 {
	cost := 0.0
	for _, op := range bootstrap.Schedule(bp, m.LogN, target) {
		c, _ := m.opCost(op.Priced(), op.Level, op.Split, op.Plan)
		cost += c
	}
	return cost
}

// bootParams returns the bootstrap configuration a program was compiled
// with (the defaults for a program without bootstraps).
func bootParams(res *ckksir.Result) bootstrap.Parameters {
	if res.Boot != nil {
		return *res.Boot
	}
	return bootstrap.Parameters{}
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
			mem.Weights += float64(m.plainRows(in)) * n * 8
		}
	}
	// Working set: a handful of live ciphertexts at the input level.
	mem.WorkingSet = 16 * 2 * float64(res.InputLevel+1) * n * 8
	return mem
}
