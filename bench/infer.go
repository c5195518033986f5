package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	ace "antace"
	"antace/internal/bootstrap"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/tensor"
	"antace/internal/vm"
)

// inferSpec is one in-process encrypted-inference workload.
type inferSpec struct {
	build   func() (*onnx.Model, error)
	profile func() core.Config
	// budget is the largest |decrypted − reference| a logit may show:
	// about 4× the worst seen when the benchmark was defined.
	budget float64
	// opLimit is the watchdog on one inference: 10× its reference time.
	opLimit time.Duration
	// setups is how many times compile + key generation are repeated for a
	// steady median, minOps how many inferences the window holds at least.
	setups, minOps int
}

var gemvSpec = inferSpec{
	build:   func() (*onnx.Model, error) { return onnx.BuildLinear(512, 10, 42) },
	profile: ace.TestProfile,
	budget:  1e-7,
	opLimit: 3 * time.Second,
	setups:  5,
	minOps:  2,
}

var resnet8Spec = inferSpec{
	build: func() (*onnx.Model, error) {
		return onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
	},
	// Under the test profile's default bootstrap (K = 16 for a secret of
	// Hamming weight 192, about 4.2σ) one inference in about seventy came
	// back off by 1e18, most likely the integer part overflowing EvalMod's
	// range. A benchmark needs operations that do not fail, so this
	// workload widens the range and adds a double-angle step to keep the
	// approximation tight; the cost is one more level (30, not 29).
	profile: func() core.Config {
		p := ace.TestProfile()
		p.CKKS.Boot = bootstrap.Parameters{K: 24, DoubleAngle: 4}
		return p
	},
	budget:  0.6,
	opLimit: 70 * time.Second,
	setups:  3,
	minOps:  3,
}

// session is what set-up leaves behind: the decoded model for the
// reference, the compiled program, and the key holder's two halves.
type session struct {
	model  *onnx.Model
	prog   *core.Compiled
	mach   *vm.Machine
	client *vm.Client
	shape  []int

	decode, compile, keygen time.Duration
}

// newSession does what a model developer and a data owner do once:
// serialise and decode the model, compile it, generate keys.
func newSession(spec inferSpec, keySeed uint64) (*session, error) {
	built, err := spec.build()
	if err != nil {
		return nil, err
	}
	raw := onnx.Marshal(built)
	s := &session{}
	t0 := time.Now()
	if s.model, err = onnx.Unmarshal(raw); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if s.prog, err = core.Compile(s.model, spec.profile()); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if s.mach, s.client, err = vm.New(s.prog.CKKS, s.prog.VectorLen(), ring.SeedFromInt(keySeed)); err != nil {
		return nil, err
	}
	s.decode, s.compile, s.keygen = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	for _, d := range s.model.Graph.Inputs[0].Shape {
		s.shape = append(s.shape, int(d))
	}
	return s, nil
}

func (s *session) randomInput(rng *rand.Rand) *tensor.Tensor {
	in := tensor.New(s.shape...)
	for i := range in.Data {
		in.Data[i] = rng.Float64()*2 - 1
	}
	return in
}

// inferTrace is one inference as the client sees it. The memory fields
// are filled only when a profile is attached.
type inferTrace struct {
	start                 time.Time
	encrypt, run, decrypt time.Duration
	cpu                   float64 // processor seconds from start to the end of decrypt
	prof                  *obs.RunProfile
	mallocs, bytes        uint64
	heapInMB              float64
	maxErr                float64
}

func (t *inferTrace) total() time.Duration { return t.encrypt + t.run + t.decrypt }

// infer runs pack → encrypt → evaluate → decrypt → unpack and compares
// the logits with the reference. prof non-nil makes it a traced run.
func (s *session) infer(in *tensor.Tensor, prof *obs.RunProfile, budget float64) (*inferTrace, error) {
	want, err := refRun(s.model, in)
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	tr := &inferTrace{prof: prof, start: time.Now()}
	s.mach.Prof = prof

	packed, err := s.prog.Vec.InLayout.Pack(in.Data)
	if err != nil {
		return nil, err
	}
	ct, err := s.client.Encrypt(packed)
	if err != nil {
		return nil, err
	}
	tr.encrypt = time.Since(tr.start)

	// ReadMemStats stops the world, so it sits between the timed parts.
	var before, after runtime.MemStats
	if prof != nil {
		runtime.ReadMemStats(&before)
	}
	t := time.Now()
	out, err := s.mach.Run(s.prog.CKKS.Module, ct)
	tr.run = time.Since(t)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		runtime.ReadMemStats(&after)
		tr.mallocs, tr.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		tr.heapInMB = float64(after.HeapInuse) / (1 << 20)
	}

	t = time.Now()
	got, err := s.prog.Vec.OutLayout.Unpack(s.client.Decrypt(out))
	tr.decrypt = time.Since(t)
	tr.cpu = selfCPU() - cpu0
	if err != nil {
		return nil, err
	}

	if len(got) != len(want.Data) {
		return nil, fmt.Errorf("decrypted %d logits, reference has %d", len(got), len(want.Data))
	}
	for i := range got {
		tr.maxErr = math.Max(tr.maxErr, math.Abs(got[i]-want.Data[i]))
	}
	if !(tr.maxErr <= budget) {
		return tr, fmt.Errorf("output off by %.3g, budget %.3g", tr.maxErr, budget)
	}
	return tr, nil
}

// profiledOps are the opcodes reported by name; the rest are summed
// into ckks.other_s so the per-op times still add up to the run.
var profiledOps = []string{
	ckksir.OpBootstrap, ckksir.OpRotate, ckksir.OpEncode, ckksir.OpPoly,
	ckksir.OpMulPlain, ckksir.OpAdd, ckksir.OpRelin, ckksir.OpRescale,
}

var profiledKernels = map[string]string{
	"poly.decomp_modup": "ring.decomp_modup",
	"poly.hw_modmuladd": "ring.hw_modmuladd",
	"poly.mod_down":     "ring.mod_down",
}

func runInfer(ctx *runCtx, spec inferSpec) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	rng := rand.New(rand.NewPCG(ctx.seed, 0xBE7C4))
	root := ctx.rec.add(0, 0, "workload", time.Now(), time.Now())

	// Set-up: decode + compile + key generation, repeated for a steady
	// median, then the first (cold) inference, once, on the last session.
	var s *session
	var builds []float64
	var start time.Time
	for i := 0; i < spec.setups; i++ {
		// Collect the previous repetition's keys outside the timed part,
		// so every set-up, and then the window, starts from the same heap.
		s = nil
		runtime.GC()
		start = time.Now()
		var err error
		if s, err = newSession(spec, ctx.seed<<8|uint64(i)); err != nil {
			return o, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	warm, err := s.infer(s.randomInput(rng), nil, spec.budget)
	if err != nil {
		return o, fmt.Errorf("set-up: first inference: %w", err)
	}
	end := time.Now()
	o.setups, o.setupS = spec.setups, median(builds)+warm.total().Seconds()
	if ctx.traced() {
		id := ctx.rec.add(root, 0, "setup", start, end)
		cid := ctx.rec.add(id, 0, "compile", start.Add(s.decode), start.Add(s.decode+s.compile))
		names, durs := passSpans(s.prog)
		ctx.rec.addSeq(cid, 0, start.Add(s.decode), names, durs)
		ctx.rec.add(id, 0, "keygen", start.Add(s.decode+s.compile), start.Add(s.decode+s.compile+s.keygen))
		ctx.rec.add(id, 0, "warmup", warm.start, end)
	}
	if ctx.traced() {
		o.layers["onnx.decode_ms"] = ms(s.decode)
		addPassTimes(o.layers, s.prog)
		addIRSizes(o.layers, s.prog)
		o.layers["ckks.keygen_s"] = s.keygen.Seconds()
		o.layers["ckks.galois_keys"] = float64(s.mach.KeyCount)
		if raw, err := s.mach.Eval.Keys().MarshalBinary(); err == nil {
			o.layers["ckks.eval_key_mb"] = float64(len(raw)) / (1 << 20)
		}
	}

	runtime.GC()

	// Measured window: closed loop, one caller. In a traced run every
	// second inference carries the profile and the others do not, so the
	// two medians give the tracing overhead under the same conditions.
	var traces []*inferTrace
	var maxErr float64
	for i := 0; i < spec.minOps || o.elapsed < ctx.seconds; i++ {
		var prof *obs.RunProfile
		if ctx.traced() && i%2 == 1 {
			prof = obs.NewRunProfile()
		}
		in := s.randomInput(rng)
		var tr *inferTrace
		o.attempted++
		opStart := time.Now()
		err := withDeadline(spec.opLimit, func() (err error) {
			tr, err = s.infer(in, prof, spec.budget)
			return err
		})
		if err == errWatchdog {
			o.elapsed += time.Since(opStart).Seconds()
			return o, fmt.Errorf("inference %d: %w", i, err)
		}
		if tr == nil {
			return o, fmt.Errorf("inference %d: %w", i, err)
		}
		o.elapsed += tr.total().Seconds()
		maxErr = math.Max(maxErr, tr.maxErr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: inference %d: %v\n", i, err)
			continue
		}
		o.succeeded++
		if prof == nil {
			o.ops = append(o.ops, tr.total().Seconds())
			o.cpuPerOp = append(o.cpuPerOp, tr.cpu)
			continue
		}
		o.tracedOps = append(o.tracedOps, tr.total().Seconds())
		traces = append(traces, tr)
		id := ctx.rec.add(root, i+1, "infer", tr.start, tr.start.Add(tr.total()))
		parts := ctx.rec.addSeq(id, i+1, tr.start, []string{"encrypt", "run", "decrypt"},
			[]time.Duration{tr.encrypt, tr.run, tr.decrypt})
		var names []string
		var durs []time.Duration
		for _, op := range prof.Ops() {
			names = append(names, op.Op)
			durs = append(durs, time.Duration(op.TotalMs*float64(time.Millisecond)))
		}
		ctx.rec.addSeq(parts[1], i+1, tr.start.Add(tr.encrypt), names, durs)
	}
	ctx.rec.finish(root, time.Now())
	if ctx.traced() {
		inferLayers(o.layers, traces)
		o.layers["vm.logit_max_abs_err"] = maxErr
		if maxErr > 0 {
			o.layers["vm.precision_bits"] = -math.Log2(maxErr)
		}
	}
	return o, nil
}

// inferLayers folds the traced inferences into per-layer metrics, each a
// mean per inference, so that children add up to their parents: the
// three parts to the operation, the per-op times and the loop overhead
// to the run. Sums are divided once, which keeps whole counts whole.
func inferLayers(layers map[string]float64, traces []*inferTrace) {
	named := map[string]bool{}
	for _, op := range profiledOps {
		named[op] = true
	}
	sum := map[string]float64{}
	for _, tr := range traces {
		sum["vm.encrypt_ms"] += ms(tr.encrypt)
		sum["vm.run_s"] += tr.run.Seconds()
		sum["vm.decrypt_ms"] += ms(tr.decrypt)
		for _, st := range tr.prof.Ops() {
			name := "ckks.other"
			if named[st.Op] {
				name = st.Op
				sum[name+"_count"] += float64(st.Count)
			}
			sum[name+"_s"] += st.TotalMs / 1e3
		}
		for _, st := range tr.prof.Kernels() {
			if name, ok := profiledKernels[st.Op]; ok {
				sum[name+"_s"] += st.TotalMs / 1e3
				sum[name+"_count"] += float64(st.Count)
			}
		}
		sum["vm.loop_overhead_s"] += (tr.run - tr.prof.Total()).Seconds()
		sum["vm.allocs_per_infer"] += float64(tr.mallocs)
		sum["vm.bytes_per_infer"] += float64(tr.bytes)
		layers["vm.heap_inuse_mb"] = tr.heapInMB
	}
	for name, v := range sum {
		layers[name] = v / float64(len(traces))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
