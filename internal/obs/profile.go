package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"antace/internal/kswork"
)

// DurationBuckets are the histogram upper bounds, in seconds, used for
// per-opcode and request-latency histograms. FHE op costs span five
// orders of magnitude between the reduced test profile (sub-millisecond
// adds) and paper-scale bootstraps (tens of seconds), so the buckets
// are decade-spaced with extra resolution in the millisecond range.
var DurationBuckets = []float64{
	1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 60,
}

// bucketIndex returns the first bucket whose bound holds d, or
// len(DurationBuckets) for the implicit +Inf bucket.
func bucketIndex(d time.Duration) int {
	s := d.Seconds()
	for i, b := range DurationBuckets {
		if s <= b {
			return i
		}
	}
	return len(DurationBuckets)
}

// TrajPoint is one step of a run's level-and-scale trajectory: after
// instruction PC (op Op) executed, the result ciphertext sat at Level
// with scale Scale. The sequence is the CKKS analogue of a flame graph
// x-axis — it shows exactly where the compiled program spends its
// multiplicative depth and where rescales and bootstraps restore it.
type TrajPoint struct {
	PC    int     `json:"pc"`
	Op    string  `json:"op"`
	Level int     `json:"level"`
	Scale float64 `json:"scale"`
}

// maxTrajPoints bounds one run's recorded trajectory; deeper programs
// record the first maxTrajPoints steps and count the rest in
// TrajDropped, so profiling memory stays O(1) per request.
const maxTrajPoints = 4096

// opRec accumulates one opcode's cost within a single run. buckets has
// len(DurationBuckets)+1 entries, the last being the +Inf overflow.
type opRec struct {
	count   uint64
	total   time.Duration
	max     time.Duration
	buckets []uint64
}

func newOpRec() *opRec {
	return &opRec{buckets: make([]uint64, len(DurationBuckets)+1)}
}

// FusedConstituents maps each fused kernel opcode — as reported by the
// runtime's KernelObserver and emitted by the CKKS expansion
// (kswork.Expand) — to the primitive opcodes whose work it subsumes. Live
// Figure 6 comparisons against pre-fusion profiles read this to know
// which primitive rows a fused row replaced: poly.decomp_modup folds the
// digit decomposition, the RNS mod-up and the surrounding
// inverse/forward transforms into one pass; poly.hw_modmuladd folds the
// evaluation-key multiply and accumulate; the fused poly.mod_down kernel
// additionally absorbs the INTT/NTT pair that used to bracket the
// primitive mod_down.
var FusedConstituents = map[string][]string{
	kswork.PolyDecompModUp: {kswork.PolyDecomp, kswork.PolyModUp, kswork.PolyINTT, kswork.PolyNTT},
	kswork.PolyModMulAdd:   {kswork.PolyModMul, kswork.PolyModAdd},
	kswork.PolyModDown:     {kswork.PolyModDown, kswork.PolyINTT, kswork.PolyNTT},
}

// RunProfile records one execution's per-opcode costs and trajectory.
// A run is single-goroutine, so RunProfile is not synchronized; merge
// it into an Aggregate for cross-request accounting.
//
// Instruction-level costs (Record) and fused-kernel costs (RecordKernel)
// are kept in separate tables: kernel time is a sub-measurement *inside*
// instructions already counted by Record, so folding it into the op
// table would double-count evaluation time.
type RunProfile struct {
	ops     map[string]*opRec
	kernels map[string]*opRec

	Trajectory  []TrajPoint
	TrajDropped int
}

// NewRunProfile returns an empty per-run recorder.
func NewRunProfile() *RunProfile {
	return &RunProfile{
		ops:     make(map[string]*opRec, 16),
		kernels: make(map[string]*opRec, 4),
	}
}

func record(tab map[string]*opRec, op string, d time.Duration) {
	r := tab[op]
	if r == nil {
		r = newOpRec()
		tab[op] = r
	}
	r.count++
	r.total += d
	if d > r.max {
		r.max = d
	}
	r.buckets[bucketIndex(d)]++
}

// Record adds one instruction's duration under its opcode.
func (p *RunProfile) Record(op string, d time.Duration) {
	record(p.ops, op, d)
}

// RecordKernel adds one fused-kernel execution under its opcode. It has
// the signature of ckks.Evaluator.KernelObserver so the VM can wire it
// up directly.
func (p *RunProfile) RecordKernel(op string, d time.Duration) {
	record(p.kernels, op, d)
}

// Step appends one trajectory point, bounded by maxTrajPoints.
func (p *RunProfile) Step(pc int, op string, level int, scale float64) {
	if len(p.Trajectory) >= maxTrajPoints {
		p.TrajDropped++
		return
	}
	p.Trajectory = append(p.Trajectory, TrajPoint{PC: pc, Op: op, Level: level, Scale: scale})
}

// Steps reports how many instructions were recorded.
func (p *RunProfile) Steps() uint64 {
	var n uint64
	for _, r := range p.ops {
		n += r.count
	}
	return n
}

// Total sums all recorded instruction durations.
func (p *RunProfile) Total() time.Duration {
	var t time.Duration
	for _, r := range p.ops {
		t += r.total
	}
	return t
}

// OpStat is one opcode's aggregated cost, in the shape /v1/profilez
// serves and acebench -profile-ops prints.
type OpStat struct {
	Op      string  `json:"op"`
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanMs  float64 `json:"mean_ms"`
	MaxMs   float64 `json:"max_ms"`
	// Buckets are per-bucket (non-cumulative) counts aligned with
	// BucketBoundsMs in the enclosing snapshot; the last entry is the
	// overflow (+Inf) bucket.
	Buckets []uint64 `json:"buckets"`
}

// Ops returns the run's per-opcode stats sorted by total time,
// costliest first.
func (p *RunProfile) Ops() []OpStat {
	return opStats(p.ops)
}

// Kernels returns the run's fused-kernel stats sorted by total time,
// costliest first.
func (p *RunProfile) Kernels() []OpStat {
	return opStats(p.kernels)
}

func opStats(tab map[string]*opRec) []OpStat {
	out := make([]OpStat, 0, len(tab))
	for op, r := range tab {
		st := OpStat{
			Op:      op,
			Count:   r.count,
			TotalMs: float64(r.total) / float64(time.Millisecond),
			MaxMs:   float64(r.max) / float64(time.Millisecond),
			Buckets: append([]uint64(nil), r.buckets...),
		}
		if r.count > 0 {
			st.MeanMs = st.TotalMs / float64(r.count)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

// ProfileSnapshot is the /v1/profilez reply: per-opcode aggregates over
// every profiled run since boot, the bucket bounds the histograms use,
// and the most recent run's level/scale trajectory.
type ProfileSnapshot struct {
	Runs uint64 `json:"runs"`
	// EvalMsTotal is wall-clock evaluation time summed over runs, as
	// measured around the whole VM execution; OpMsTotal sums the
	// per-instruction measurements. The two bracket each other — their
	// gap is loop overhead — and the paper-figure reproduction checks
	// they agree within 10%.
	EvalMsTotal    float64   `json:"eval_ms_total"`
	OpMsTotal      float64   `json:"op_ms_total"`
	BucketBoundsMs []float64 `json:"bucket_bounds_ms"`
	Ops            []OpStat  `json:"ops"`
	// Kernels breaks key-switch instruction time down into the fused
	// kernels executed beneath them (poly.decomp_modup, poly.hw_modmuladd,
	// poly.mod_down). Kernel time is a refinement of time already counted
	// in Ops/OpMsTotal, never additional to it, so KernelMsTotal must not
	// be summed with OpMsTotal. FusedOps maps each fused opcode to the
	// primitive opcodes it subsumes, keeping comparisons against
	// pre-fusion profiles interpretable.
	Kernels        []OpStat            `json:"kernels,omitempty"`
	KernelMsTotal  float64             `json:"kernel_ms_total"`
	FusedOps       map[string][]string `json:"fused_ops,omitempty"`
	LastTrajectory []TrajPoint         `json:"last_trajectory,omitempty"`
}

// Op finds one opcode's aggregated stats by name.
func (s ProfileSnapshot) Op(name string) (OpStat, bool) {
	for _, st := range s.Ops {
		if st.Op == name {
			return st, true
		}
	}
	return OpStat{}, false
}

// OpSecPerRun returns one opcode's measured seconds per run (0 when the
// op never executed or no run completed) — the unit the cost model's
// per-run predictions are compared against.
func (s ProfileSnapshot) OpSecPerRun(name string) float64 {
	st, ok := s.Op(name)
	if !ok || s.Runs == 0 {
		return 0
	}
	return st.TotalMs / 1e3 / float64(s.Runs)
}

// Aggregate folds RunProfiles from concurrent workers into the
// process-wide per-opcode table. All methods are safe for concurrent
// use.
type Aggregate struct {
	mu       sync.Mutex
	ops      map[string]*opRec
	kernels  map[string]*opRec
	runs     uint64
	eval     time.Duration
	lastTraj []TrajPoint
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		ops:     make(map[string]*opRec, 16),
		kernels: make(map[string]*opRec, 4),
	}
}

// Merge folds one finished run into the aggregate. eval is the
// wall-clock duration of the whole execution, measured by the caller
// around the VM run.
func (a *Aggregate) Merge(p *RunProfile, eval time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.eval += eval
	mergeOpRecs(a.ops, p.ops)
	mergeOpRecs(a.kernels, p.kernels)
	if len(p.Trajectory) > 0 {
		a.lastTraj = append(a.lastTraj[:0], p.Trajectory...)
	}
}

func mergeOpRecs(dstTab, srcTab map[string]*opRec) {
	for op, r := range srcTab {
		dst := dstTab[op]
		if dst == nil {
			dst = newOpRec()
			dstTab[op] = dst
		}
		dst.count += r.count
		dst.total += r.total
		if r.max > dst.max {
			dst.max = r.max
		}
		for i := range r.buckets {
			dst.buckets[i] += r.buckets[i]
		}
	}
}

// Snapshot assembles the current profile, ops sorted costliest first.
func (a *Aggregate) Snapshot() ProfileSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := ProfileSnapshot{
		Runs:           a.runs,
		EvalMsTotal:    float64(a.eval) / float64(time.Millisecond),
		BucketBoundsMs: make([]float64, len(DurationBuckets)),
		Ops:            make([]OpStat, 0, len(a.ops)),
		LastTrajectory: append([]TrajPoint(nil), a.lastTraj...),
	}
	for i, b := range DurationBuckets {
		snap.BucketBoundsMs[i] = b * 1e3
	}
	snap.Ops = opStats(a.ops)
	for _, st := range snap.Ops {
		snap.OpMsTotal += st.TotalMs
	}
	if len(a.kernels) > 0 {
		snap.Kernels = opStats(a.kernels)
		for _, st := range snap.Kernels {
			snap.KernelMsTotal += st.TotalMs
		}
		snap.FusedOps = FusedConstituents
	}
	return snap
}

// Histogram is a fixed-bucket concurrent duration histogram for
// request-level timings (queue wait, end-to-end latency). Observe is
// lock-free; Snapshot is approximate under concurrent writes, which is
// fine for a metrics page.
type Histogram struct {
	bounds  []float64 // seconds, ascending
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
}

// NewHistogram builds a histogram over the given second-denominated
// bounds (nil uses DurationBuckets); an implicit +Inf bucket is added.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if s <= b {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// HistSnapshot is a histogram's point-in-time state: per-bucket
// (non-cumulative) counts aligned with Bounds plus overflow, the total
// observation count and the sum in seconds.
type HistSnapshot struct {
	Bounds     []float64
	Counts     []uint64
	Count      uint64
	SumSeconds float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:     h.bounds,
		Counts:     make([]uint64, len(h.buckets)),
		Count:      h.count.Load(),
		SumSeconds: float64(h.sumNs.Load()) / 1e9,
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
