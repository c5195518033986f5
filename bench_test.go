// Package antace's benchmarks regenerate every table and figure of the
// paper's evaluation (§6) plus the ablations DESIGN.md calls out. Run
// with:
//
//	go test -bench=. -benchmem                     # reduced scale
//	go test -bench=Paper -benchtime=1x -timeout=2h # full paper scale
//
// Benchmarks report the reproduced quantities as custom metrics
// (seconds, bytes, accuracy) so `go test -bench` output documents the
// artifact; cmd/acebench prints the same data as formatted tables.
package ace

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/experiments"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/poly"
	"antace/internal/ring"
	"antace/internal/sihe"
	"antace/internal/store"
	"antace/internal/tensor"
	"antace/internal/vecir"
	"antace/internal/vm"
)

// --- Figure 5: compile times -------------------------------------------

func benchCompile(b *testing.B, spec experiments.ModelSpec, scale experiments.Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		m, err := experiments.BuildModel(spec, scale)
		if err != nil {
			b.Fatal(err)
		}
		c, err := core.Compile(m, experiments.ConfigFor(scale, false))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.LowerPoly(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for level, d := range c.LevelBreakdown() {
				b.ReportMetric(d.Seconds(), level+"-s")
			}
		}
	}
}

func BenchmarkFigure5CompileTimes(b *testing.B) {
	for _, spec := range experiments.ReducedModels() {
		b.Run(spec.Name, func(b *testing.B) { benchCompile(b, spec, experiments.ScaleReduced) })
	}
}

func BenchmarkFigure5CompileTimesPaper(b *testing.B) {
	if testing.Short() {
		b.Skip("paper scale")
	}
	for _, spec := range experiments.PaperModels()[:2] {
		b.Run(spec.Name, func(b *testing.B) { benchCompile(b, spec, experiments.ScalePaper) })
	}
}

// --- Figure 6: inference time, ACE vs Expert ---------------------------

func BenchmarkFigure6Inference(b *testing.B) {
	cal := costmodel.DefaultCalibration()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(io.Discard, experiments.ScaleReduced, cal)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Speedup, "speedup-"+shorten(r.Model))
			}
		}
	}
}

// --- Figure 7: memory --------------------------------------------------

func BenchmarkFigure7Memory(b *testing.B) {
	cal := costmodel.DefaultCalibration()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(io.Discard, experiments.ScaleReduced, cal)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(100*r.Saving, "saving%-"+shorten(r.Model))
				b.ReportMetric(100*r.KeyShare, "keyshare%-"+shorten(r.Model))
			}
		}
	}
}

// --- Table 10: parameter selection --------------------------------------

func BenchmarkTable10Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table10(io.Discard, experiments.ScaleReduced)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.LogN), "logN-"+shorten(r.Model))
			}
		}
	}
}

// --- Table 11: accuracy --------------------------------------------------

func BenchmarkTable11Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table11(io.Discard, 100, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(100*r.Unencrypted, "plain%-"+shorten(r.Model))
				b.ReportMetric(100*r.Encrypted, "enc%-"+shorten(r.Model))
			}
		}
	}
}

// --- End-to-end encrypted inference (real FHE, reduced scale) ----------

func BenchmarkEncryptedInference(b *testing.B) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4, Classes: 10})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(m, TestProfile())
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewRuntime(prog)
	if err != nil {
		b.Fatal(err)
	}
	image := tensor.New(1, 3, 8, 8)
	for i := range image.Data {
		image.Data[i] = float64(i%16)/16 - 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Infer(image); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durability: checkpoint overhead ---------------------------------------

// BenchmarkCheckpointOverheadResNet20 measures what VM checkpointing
// costs on the ResNet-20 serving path (reduced scale): the same
// encrypted inference with checkpoints off, on a 2s wall-clock policy
// (the serve default), and on an aggressive every-10-instructions
// policy. Snapshots go through the real store.WriteFile fsync path.
// The acceptance budget is <5% for the wall-clock policy.
func BenchmarkCheckpointOverheadResNet20(b *testing.B) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 20, InputSize: 8, BaseChannels: 4, Classes: 10})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(m, TestProfile())
	if err != nil {
		b.Fatal(err)
	}
	image := tensor.New(1, 3, 8, 8)
	for i := range image.Data {
		image.Data[i] = float64(i%16)/16 - 0.5
	}
	ckptPath := filepath.Join(b.TempDir(), "bench.ckpt")
	policies := []struct {
		name string
		mk   func() *vm.CheckpointPolicy
	}{
		{"off", func() *vm.CheckpointPolicy { return nil }},
		{"every2s", func() *vm.CheckpointPolicy {
			return &vm.CheckpointPolicy{Every: 2 * time.Second,
				Sink: func(snap []byte) error { return store.WriteFile(ckptPath, snap) }}
		}},
		{"every10instr", func() *vm.CheckpointPolicy {
			return &vm.CheckpointPolicy{EveryN: 10,
				Sink: func(snap []byte) error { return store.WriteFile(ckptPath, snap) }}
		}},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			rt, err := NewRuntime(prog)
			if err != nil {
				b.Fatal(err)
			}
			rt.machine.Ckpt = pol.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Infer(image); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md) ----------------------------------------------

// Ablation 1: derived baby/giant split vs naive conv lowering.
func BenchmarkAblationConvRotationSharing(b *testing.B) {
	m, _ := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4, Classes: 10})
	for i := 0; i < b.N; i++ {
		nn, err := nnir.Import(m)
		if err != nil {
			b.Fatal(err)
		}
		pm := &ir.PassManager{}
		pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
		if err := pm.Run(nn); err != nil {
			b.Fatal(err)
		}
		shared, err := vecir.Lower(nn, vecir.Options{})
		if err != nil {
			b.Fatal(err)
		}
		naive, err := vecir.Lower(nn, vecir.Options{Conv: vecir.ConvNaive})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(vecir.Analyze(shared.Module.Main()).Rotations), "rot-shared")
			b.ReportMetric(float64(vecir.Analyze(naive.Module.Main()).Rotations), "rot-naive")
		}
	}
}

// Ablation 2: lazy (waterline) vs eager rescaling.
func BenchmarkAblationLazyRescale(b *testing.B) {
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	for i := 0; i < b.N; i++ {
		nn, _ := nnir.Import(m)
		pm := &ir.PassManager{}
		pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
		if err := pm.Run(nn); err != nil {
			b.Fatal(err)
		}
		if err := nnir.CalibrateReLUBounds(nn.Main(), 2, 1.5, 1); err != nil {
			b.Fatal(err)
		}
		vres, _ := vecir.Lower(nn, vecir.Options{})
		sm, _ := sihe.Lower(vres.Module, sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125})
		res, err := ckksir.Lower(sm, ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true})
		if err != nil {
			b.Fatal(err)
		}
		eager, _ := ckksir.CountOps(res.Module.Main())
		pm2 := &ir.PassManager{}
		pm2.Add(ckksir.LazyRescale(), ir.DCE())
		if err := pm2.Run(res.Module); err != nil {
			b.Fatal(err)
		}
		lazy, _ := ckksir.CountOps(res.Module.Main())
		if i == 0 {
			b.ReportMetric(float64(eager["ckks.rescale"]), "rescales-eager")
			b.ReportMetric(float64(lazy["ckks.rescale"]), "rescales-lazy")
		}
	}
}

// Ablation 3: minimal-level vs full-level bootstrapping (cost model).
func BenchmarkAblationBootstrapLevel(b *testing.B) {
	cal := costmodel.DefaultCalibration()
	m, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 4, Classes: 4})
	for i := 0; i < b.N; i++ {
		var totals [2]float64
		for j, slack := range []int{0, 4} {
			cfg := experiments.ReducedConfig()
			cfg.CKKS.ExpertSlack = slack
			c, err := core.Compile(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			model := &costmodel.Model{Cal: cal, Geometry: kswork.Geometry{LogN: 16, K: 2}}
			totals[j] = model.InferenceCost(c.CKKS).Bootstrap
		}
		if i == 0 {
			b.ReportMetric(totals[1]/totals[0], "fullvsmin-ratio")
		}
	}
}

// Ablation 4: key-switching digit count (special-prime sweep, runtime
// measured). The shallow case is a 7-prime chain at digit widths 1-3.
// The deep case is the sweep behind ckksir's special-prime rule: the
// 30-prime chain of the bootstrapped reduced ResNets (q0, 16 compute
// levels, 13 bootstrap levels) at the benchmark workload's ring degree,
// K special primes, timed on one relinearisation and on one hoisted
// batch of 15 rotations (the baby steps of a bootstrap DFT).
func BenchmarkAblationKeySwitchDigits(b *testing.B) {
	mulRelin := func(lit ckks.ParametersLiteral) func(*testing.B) {
		return func(b *testing.B) {
			eval, ct := keySwitchBenchSetup(b, lit, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.MulRelin(ct, ct); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, logP := range [][]int{{60}, {60, 60}, {50, 50, 50}} {
		lit := ckks.ParametersLiteral{LogN: 12, LogQ: []int{50, 40, 40, 40, 40, 40, 40}, LogP: logP, LogScale: 40}
		b.Run(fmt.Sprintf("alpha%d", len(logP)), mulRelin(lit))
	}
	deep := []int{60}
	for i := 0; i < 16; i++ {
		deep = append(deep, 40)
	}
	for i := 0; i < 13; i++ {
		deep = append(deep, 60)
	}
	babies := make([]int, 15)
	for i := range babies {
		babies[i] = i + 1
	}
	for _, k := range []int{2, 4, 6, 8, 10} {
		logP := make([]int, k)
		for i := range logP {
			logP[i] = 61
		}
		lit := ckks.ParametersLiteral{LogN: 9, LogQ: deep, LogP: logP, LogScale: 40}
		b.Run(fmt.Sprintf("deep30/K%d/MulRelin", k), mulRelin(lit))
		b.Run(fmt.Sprintf("deep30/K%d/Hoisted15", k), func(b *testing.B) {
			eval, ct := keySwitchBenchSetup(b, lit, babies)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.RotateHoisted(ct, babies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Runtime microbenchmarks (calibration substrate) --------------------

func BenchmarkRuntimeNTT(b *testing.B) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 13, LogQ: []int{50, 40, 40}, LogP: []int{50}, LogScale: 40})
	if err != nil {
		b.Fatal(err)
	}
	rQ := params.RingQ()
	p := rQ.NewPoly(rQ.MaxLevel())
	s := ring.NewSampler(rQ, ring.SeedFromInt(2))
	s.Uniform(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rQ.NTT(p, p)
	}
}

func BenchmarkRuntimeRotate(b *testing.B) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 12, LogQ: []int{50, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40})
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(3))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{Galois: kg.GenGaloisKeys([]int{1}, false, sk)}
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptorFromSecretKey(params, sk)
	eval := ckks.NewEvaluator(params, keys)
	vals := make([]float64, params.Slots())
	pt, _ := enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
	ct := encryptor.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Rotate(ct, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// bootstrapBench is one bootstrap of the benchmark's reduced ResNet-8
// (bench/infer.go: K = 24, four double angles) on the parameters that
// program compiles to, with every phase's input at hand and the diagonal
// tables warm.
type bootstrapBench struct {
	lit        ckks.ParametersLiteral
	boot       bootstrap.Parameters
	bt         *bootstrap.Bootstrapper
	eval       *ckks.Evaluator
	target     int
	ct, raised *ckks.Ciphertext // exhausted input; after Raise
	ct0, ct1   *ckks.Ciphertext // after CoeffsToSlots
	y0, y1     *ckks.Ciphertext // after EvalMod
	keys       int              // Galois keys the circuit needs
	tableMiB   float64          // encoded diagonals after one bootstrap
}

// newBootstrapBench compiles the model bench/infer.go runs, under its
// profile, with the DFT stage counts given (zero: the compiler's choice):
// the chain, the target level and the circuit are the program's own.
func newBootstrapBench(b *testing.B, c2sStages, s2cStages int) *bootstrapBench {
	b.Helper()
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
	must(err)
	profile := TestProfile()
	profile.CKKS.Boot = bootstrap.Parameters{K: 24, DoubleAngle: 4, C2SStages: c2sStages, S2CStages: s2cStages}
	prog, err := Compile(m, profile)
	must(err)
	lit, target, boot := prog.CKKS.Literal, prog.CKKS.TargetLevel, prog.CKKS.Boot
	params, err := ckks.NewParameters(lit)
	must(err)
	bt, err := bootstrap.NewBootstrapper(params, *boot, params.DefaultScale())
	must(err)
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(6))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(bt.RequiredRotations(), true, sk),
	}
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = 0.25
	}
	pt, err := ckks.NewEncoder(params).EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
	must(err)
	s := &bootstrapBench{
		lit: lit, boot: *boot, bt: bt, eval: ckks.NewEvaluator(params, keys), target: target,
		ct:   ckks.NewEncryptorFromSecretKey(params, sk).Encrypt(pt),
		keys: len(keys.Galois),
	}
	must(s.eval.DropLevel(s.ct, s.ct.Level()))
	s.raised, _, err = bt.Raise(s.eval, s.ct, target)
	must(err)
	s.ct0, s.ct1, err = bt.CoeffsToSlots(s.eval, s.raised)
	must(err)
	s.y0, err = bt.EvalMod(s.eval, s.ct0)
	must(err)
	s.y1, err = bt.EvalMod(s.eval, s.ct1)
	must(err)
	_, err = bt.SlotsToCoeffs(s.eval, s.y0, s.y1)
	must(err)
	s.tableMiB = float64(bt.TableStats().Bytes) / (1 << 20)
	return s
}

func (s *bootstrapBench) bootstrap() error {
	_, err := s.bt.Bootstrap(s.eval, s.ct, s.target)
	return err
}

// BenchmarkRuntimeBootstrap times one bootstrap and its three phases on
// the chain and stage counts the compiler selects, refreshing to the
// level the program refreshes to. The phase split is what ROADMAP and
// DESIGN quote.
func BenchmarkRuntimeBootstrap(b *testing.B) {
	s := newBootstrapBench(b, 0, 0)
	b.Logf("%d primes, %d special, C2S/S2C stages %d/%d, %d Galois keys, %.1f MiB of diagonals",
		len(s.lit.LogQ), len(s.lit.LogP), s.boot.C2SStages, s.boot.S2CStages, s.keys, s.tableMiB)
	for _, phase := range []struct {
		name string
		run  func() error
	}{
		{"Bootstrap", s.bootstrap},
		{"C2S", func() error { _, _, err := s.bt.CoeffsToSlots(s.eval, s.raised); return err }},
		{"EvalMod", func() error { // both halves, as one bootstrap runs it
			if _, err := s.bt.EvalMod(s.eval, s.ct0); err != nil {
				return err
			}
			_, err := s.bt.EvalMod(s.eval, s.ct1)
			return err
		}},
		{"S2C", func() error { _, err := s.bt.SlotsToCoeffs(s.eval, s.y0, s.y1); return err }},
	} {
		b.Run(phase.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := phase.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 5: DFT stage counts (runtime measured) — the sweep behind
// ckksir's stage rule. Every pair gets the chain it needs (a prime per
// stage) and the special modulus that chain gets; one whole bootstrap is
// timed. "chosen" is whatever the rule picks.
func BenchmarkAblationDFTStages(b *testing.B) {
	for _, st := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}, {4, 2}, {2, 3}, {3, 3}, {0, 0}} {
		name := fmt.Sprintf("C2S%d-S2C%d", st[0], st[1])
		if st == [2]int{} {
			name = "chosen"
		}
		b.Run(name, func(b *testing.B) {
			s := newBootstrapBench(b, st[0], st[1])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.bootstrap(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(s.lit.LogQ)), "primes")
			b.ReportMetric(float64(s.keys), "galois-keys")
			b.ReportMetric(s.tableMiB, "table-MiB")
		})
	}
}

// --- Limb-level microbenchmarks (parallel ring engine) -------------------
//
// These isolate the RNS-limb hot loops that internal/par distributes across
// the worker pool, so limb-level speedups (and allocation hygiene) are
// visible separately from the end-to-end Figure 6 numbers. Run with
// ACE_WORKERS=1 and ACE_WORKERS=N to compare serial vs parallel.

func BenchmarkNTT(b *testing.B) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 13, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: []int{50}, LogScale: 40})
	if err != nil {
		b.Fatal(err)
	}
	rQ := params.RingQ()
	p := rQ.NewPoly(rQ.MaxLevel())
	s := ring.NewSampler(rQ, ring.SeedFromInt(2))
	s.Uniform(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rQ.NTT(p, p)
	}
}

// keySwitchLiteral is the geometry of the limb-level key-switch
// benchmarks below.
var keySwitchLiteral = ckks.ParametersLiteral{
	LogN: 12, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40,
}

// keySwitchBenchSetup builds an evaluator holding a relinearisation key
// and the given rotation keys, and one top-level ciphertext.
func keySwitchBenchSetup(b *testing.B, lit ckks.ParametersLiteral, rotations []int) (*ckks.Evaluator, *ckks.Ciphertext) {
	b.Helper()
	params, err := ckks.NewParameters(lit)
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(7))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(rotations, false, sk),
	}
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptorFromSecretKey(params, sk)
	eval := ckks.NewEvaluator(params, keys)
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = float64(i%13)/13 - 0.5
	}
	pt, err := enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	return eval, encryptor.Encrypt(pt)
}

// BenchmarkKeySwitch measures one ciphertext multiplication plus
// relinearisation: tensor product, digit decomposition, ModUp, MulAcc
// against the key, ModDown.
func BenchmarkKeySwitch(b *testing.B) {
	eval, ct := keySwitchBenchSetup(b, keySwitchLiteral, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.MulRelin(ct, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHoistedRotations measures a batch of rotations sharing one
// hoisted digit decomposition (the baby-step pattern of BSGS linear
// transforms and the bootstrapping DFTs).
func BenchmarkHoistedRotations(b *testing.B) {
	ks := []int{1, 2, 4, 8}
	eval, ct := keySwitchBenchSetup(b, keySwitchLiteral, ks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RotateHoisted(ct, ks); err != nil {
			b.Fatal(err)
		}
	}
}

// ReLU polynomial evaluation (the dominant compute outside bootstrap).
func BenchmarkRuntimeReLU(b *testing.B) {
	logQ := []int{50}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 10, LogQ: logQ, LogP: []int{50, 50}, LogScale: 40})
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(4))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{Rlk: kg.GenRelinearizationKey(sk)}
	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptorFromSecretKey(params, sk)
	eval := ckks.NewEvaluator(params, keys)
	stages, err := poly.SignComposite(0.125, 6)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float64, params.Slots())
	for i := range vals {
		vals[i] = float64(i%17)/17 - 0.5
	}
	pt, _ := enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
	ct := encryptor.Encrypt(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.EvaluateReLU(ct, stages, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func shorten(s string) string {
	var b []byte
	for i := 0; i < len(s) && len(b) < 10; i++ {
		c := s[i]
		if c == ' ' || c == '(' || c == ')' || c == '*' {
			continue
		}
		b = append(b, c)
	}
	return string(b)
}
