// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6): Figure 5 (compile times with per-IR
// breakdown), Figure 6 (per-image inference time, ANT-ACE vs Expert,
// split into Conv/Bootstrap/ReLU/Other), Figure 7 (memory with the
// CKKS-keys share), Table 10 (automatically selected security
// parameters) and Table 11 (unencrypted vs encrypted accuracy). The
// headline numbers are produced over the exact compiled schedules; see
// DESIGN.md for the documented substitutions (cost model at full ring
// degree, synthetic dataset).
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"antace/internal/bootstrap"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/dataset"
	"antace/internal/kswork"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/train"
)

// ModelSpec names one evaluated model.
type ModelSpec struct {
	Name    string
	Depth   int
	Classes int
}

// PaperModels returns the six models of the paper's evaluation.
// ResNet-32* is ResNet-32 on CIFAR-100.
func PaperModels() []ModelSpec {
	return []ModelSpec{
		{"ResNet-20", 20, 10},
		{"ResNet-32", 32, 10},
		{"ResNet-32*", 32, 100},
		{"ResNet-44", 44, 10},
		{"ResNet-56", 56, 10},
		{"ResNet-110", 110, 10},
	}
}

// ReducedModels returns CI-sized versions of the same topologies for
// quick runs (8x8 inputs, 4 base channels).
func ReducedModels() []ModelSpec {
	return []ModelSpec{
		{"ResNet-8 (reduced)", 8, 10},
		{"ResNet-14 (reduced)", 14, 10},
	}
}

// Scale selects full paper-scale or reduced CI-scale experiments.
type Scale int

const (
	// ScalePaper compiles the six CIFAR-scale ResNets with the paper's
	// parameter profile (logN=16 chains).
	ScalePaper Scale = iota
	// ScaleReduced uses small inputs and models so the whole suite runs
	// in seconds.
	ScaleReduced
)

// BuildModel constructs a spec's ONNX graph at the given scale.
func BuildModel(spec ModelSpec, scale Scale) (*onnx.Model, error) {
	cfg := onnx.ResNetConfig{Depth: spec.Depth, Classes: spec.Classes}
	if scale == ScaleReduced {
		cfg.InputSize = 8
		cfg.BaseChannels = 4
	}
	return onnx.BuildResNet(cfg)
}

// PaperConfig is the compilation profile reproducing Table 10:
// q0 = 2^60 (the default), Delta = 2^56, bootstrap circuit of depth 11, ReLU composite
// with alpha=9, eps=1/8. Both DFTs are pinned to two stages, the 25-prime
// chain with five special primes Table 10 reports: at logN 16 the stage
// rule would take four CoeffsToSlots and three SlotsToCoeffs stages (28
// primes, two special), the cut whose diagonals overflow the tables the
// runtime keeps them in the least.
func PaperConfig() core.Config {
	return core.Config{
		SIHE: sihe.Options{ReLUAlpha: 9, ReLUEps: 1.0 / 8},
		CKKS: ckksir.Options{
			LogScale: 56,
			Mode:     ckksir.BootstrapAlways,
			Boot:     bootstrap.Parameters{EvalModDegree: 24, DoubleAngle: 2, C2SStages: 2, S2CStages: 2},
		},
	}
}

// ReducedConfig is the CI-scale profile.
func ReducedConfig() core.Config {
	return core.Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{
			LogQ0:          60,
			LogScale:       40,
			Mode:           ckksir.BootstrapAlways,
			IgnoreSecurity: true,
		},
	}
}

// ConfigFor is the profile the figures and tables compile a model with at
// a scale, as ANT-ACE or as the Expert baseline.
func ConfigFor(scale Scale, expert bool) core.Config {
	var cfg core.Config
	if scale == ScalePaper {
		cfg = PaperConfig()
		// Paper-scale figures analyse the compiled schedule without
		// executing it: the masks are built, one at a time, and dropped.
		cfg.Vec.AnalysisOnly = true
	} else {
		cfg = ReducedConfig()
	}
	cfg.Expert = expert
	return cfg
}

func modelsFor(scale Scale) []ModelSpec {
	if scale == ScalePaper {
		return PaperModels()
	}
	return ReducedModels()
}

// Figure5 compiles every model and prints the per-IR-level compile time
// breakdown.
func Figure5(w io.Writer, scale Scale) error {
	fmt.Fprintln(w, "Figure 5: ANT-ACE compile times (per-IR breakdown)")
	fmt.Fprintf(w, "%-18s %10s   %s\n", "Model", "Total", "NN / VECTOR / SIHE / CKKS / POLY / Others")
	for _, spec := range modelsFor(scale) {
		m, err := BuildModel(spec, scale)
		if err != nil {
			return err
		}
		start := time.Now()
		c, err := core.Compile(m, ConfigFor(scale, false))
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		if _, err := c.LowerPoly(); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		total := time.Since(start)
		b := c.LevelBreakdown()
		pct := func(level string) float64 {
			return 100 * float64(b[level]) / float64(total)
		}
		fmt.Fprintf(w, "%-18s %10s   %4.1f%% / %4.1f%% / %4.1f%% / %4.1f%% / %4.1f%% / %4.1f%%\n",
			spec.Name, total.Round(time.Millisecond),
			pct("NN"), pct("VECTOR"), pct("SIHE"), pct("CKKS"), pct("POLY"), pct("Others"))
		runtime.GC()
	}
	return nil
}

// Fig6Row is one model's ACE-vs-Expert comparison.
type Fig6Row struct {
	Model   string
	ACE     costmodel.Breakdown
	Expert  costmodel.Breakdown
	Speedup float64
}

// Figure6 compiles each model in both configurations and evaluates the
// calibrated cost model over the compiled schedules.
func Figure6(w io.Writer, scale Scale, cal costmodel.Calibration) ([]Fig6Row, error) {
	return Figure6Spec(w, scale, cal, modelsFor(scale))
}

// Figure6Spec is Figure6 restricted to an explicit model list.
func Figure6Spec(w io.Writer, scale Scale, cal costmodel.Calibration, specs []ModelSpec) ([]Fig6Row, error) {
	fmt.Fprintln(w, "Figure 6: per-image inference time, ANT-ACE (left) vs Expert (right), seconds")
	fmt.Fprintf(w, "%-18s %37s | %37s | %s\n", "Model", "ACE  conv/boot/relu/other (total)", "Expert conv/boot/relu/other (total)", "speedup")
	var rows []Fig6Row
	for _, spec := range specs {
		var row Fig6Row
		row.Model = spec.Name
		for _, expert := range []bool{false, true} {
			m, err := BuildModel(spec, scale)
			if err != nil {
				return nil, err
			}
			c, err := core.Compile(m, ConfigFor(scale, expert))
			if err != nil {
				return nil, fmt.Errorf("%s (expert=%v): %w", spec.Name, expert, err)
			}
			model := &costmodel.Model{Cal: cal, Geometry: c.CKKS.Literal.Geometry()}
			bd := model.InferenceCost(c.CKKS)
			if expert {
				row.Expert = bd
			} else {
				row.ACE = bd
			}
			runtime.GC()
		}
		row.Speedup = row.Expert.Total() / row.ACE.Total()
		rows = append(rows, row)
		fmt.Fprintf(w, "%-18s %7.1f/%7.1f/%7.1f/%5.1f (%7.1f) | %7.1f/%7.1f/%7.1f/%5.1f (%7.1f) | %.2fx\n",
			spec.Name,
			row.ACE.Conv, row.ACE.Bootstrap, row.ACE.ReLU, row.ACE.Other, row.ACE.Total(),
			row.Expert.Conv, row.Expert.Bootstrap, row.Expert.ReLU, row.Expert.Other, row.Expert.Total(),
			row.Speedup)
	}
	if len(rows) > 0 {
		gm := 1.0
		for _, r := range rows {
			gm *= r.Speedup
		}
		fmt.Fprintf(w, "geometric-mean speedup: %.2fx (paper: 2.24x)\n", math.Pow(gm, 1/float64(len(rows))))
	}
	return rows, nil
}

// Fig7Row is one model's memory comparison.
type Fig7Row struct {
	Model    string
	ACE      costmodel.Memory
	Expert   costmodel.Memory
	ACEKeys  int
	ExpKeys  int
	Saving   float64 // fraction of Expert memory saved
	KeyShare float64 // ACE CKKS-keys share
}

// bootstrapRotationCount estimates the Galois keys the bootstrap circuit
// needs: the baby and giant steps of every stage matrix in its schedule.
// Stages that share a rotation make it an upper bound.
func bootstrapRotationCount(res *ckksir.Result) int {
	keys := 0
	for _, op := range bootstrap.Schedule(*res.Boot, res.Literal.LogN, res.TargetLevel) {
		if op.Name == kswork.OpLinear {
			keys += op.Split.Babies + op.Split.Giants
		}
	}
	return keys
}

// Figure7 compares server memory (keys + encoded weights + working set).
func Figure7(w io.Writer, scale Scale, cal costmodel.Calibration) ([]Fig7Row, error) {
	fmt.Fprintln(w, "Figure 7: memory usage, ANT-ACE (left) vs Expert (right), GB")
	fmt.Fprintf(w, "%-18s %10s %9s | %10s %9s | %8s %s\n", "Model", "ACE", "keys%", "Expert", "keys%", "saving", "keys ACE/Expert")
	var rows []Fig7Row
	for _, spec := range modelsFor(scale) {
		var row Fig7Row
		row.Model = spec.Name
		var mems [2]costmodel.Memory
		var keys [2]int
		for i, expert := range []bool{false, true} {
			m, err := BuildModel(spec, scale)
			if err != nil {
				return nil, err
			}
			c, err := core.Compile(m, ConfigFor(scale, expert))
			if err != nil {
				return nil, err
			}
			bootKeys := 0
			if c.CKKS.Boot != nil {
				bootKeys = bootstrapRotationCount(c.CKKS)
			}
			model := &costmodel.Model{Cal: cal, Geometry: c.CKKS.Literal.Geometry()}
			// ANT-ACE truncates each key to the level its rotation is used
			// at (data-flow key analysis); the baseline generates every
			// key over the full chain.
			mems[i] = model.MemoryCost(c.CKKS, bootKeys, !expert)
			keys[i] = len(ckksir.RotationKeys(c.CKKS.Module.Main())) + bootKeys + 1
			runtime.GC()
		}
		row.ACE, row.Expert = mems[0], mems[1]
		row.ACEKeys, row.ExpKeys = keys[0], keys[1]
		row.Saving = 1 - row.ACE.Total()/row.Expert.Total()
		row.KeyShare = row.ACE.KeyShare()
		rows = append(rows, row)
		const gb = 1e9
		fmt.Fprintf(w, "%-18s %9.1f %8.1f%% | %9.1f %8.1f%% | %7.1f%% %d/%d\n",
			spec.Name, row.ACE.Total()/gb, 100*row.KeyShare,
			row.Expert.Total()/gb, 100*row.Expert.KeyShare(),
			100*row.Saving, row.ACEKeys, row.ExpKeys)
	}
	return rows, nil
}

// Tab10Row is one row of the security parameter table.
type Tab10Row struct {
	Model                 string
	LogN, LogQ0, LogScale int
	Levels, Bootstraps    int
	SpecialPrimes         int
	C2SStages, S2CStages  int // DFT stage matrices per bootstrap transform
	SecurityOK            bool
}

// Table10 prints the automatically selected security parameters.
func Table10(w io.Writer, scale Scale) ([]Tab10Row, error) {
	fmt.Fprintln(w, "Table 10: security parameters selected automatically")
	fmt.Fprintf(w, "%-18s %8s %9s %9s %8s %8s %10s %6s\n", "Model", "log2(N)", "log2(Q0)", "log2(D)", "levels", "special", "DFT stages", "128bit")
	var rows []Tab10Row
	for _, spec := range modelsFor(scale) {
		m, err := BuildModel(spec, scale)
		if err != nil {
			return nil, err
		}
		c, err := core.Compile(m, ConfigFor(scale, false))
		if err != nil {
			return nil, err
		}
		lit := c.CKKS.Literal
		row := Tab10Row{
			Model: spec.Name, LogN: lit.LogN, LogQ0: lit.LogQ[0], LogScale: lit.LogScale,
			Levels: len(lit.LogQ), Bootstraps: c.CKKS.Bootstraps,
			SpecialPrimes: len(lit.LogP),
			SecurityOK:    scale == ScalePaper,
		}
		if b := c.CKKS.Boot; b != nil {
			row.C2SStages, row.S2CStages = b.C2SStages, b.S2CStages
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-18s %8d %9d %9d %8d %8d %10s %6v\n", spec.Name, row.LogN, row.LogQ0, row.LogScale, row.Levels, row.SpecialPrimes,
			fmt.Sprintf("%d/%d", row.C2SStages, row.S2CStages), row.SecurityOK)
		runtime.GC()
	}
	return rows, nil
}

// Tab11Row is one accuracy comparison row.
type Tab11Row struct {
	Model       string
	Unencrypted float64
	Encrypted   float64
	Loss        float64
}

// Table11 trains the small CNN on the synthetic dataset, then measures
// unencrypted (plaintext reference) vs encrypted (SIHE simulator with
// the compiled polynomial approximations) top-1 accuracy over `images`
// samples, and adds agreement rows for reduced ResNet topologies.
func Table11(w io.Writer, images int, resnetImages int) ([]Tab11Row, error) {
	fmt.Fprintln(w, "Table 11: inference accuracy, unencrypted vs encrypted")
	fmt.Fprintf(w, "%-22s %12s %10s %7s\n", "Model", "Unencrypted", "Encrypted", "Loss")
	var rows []Tab11Row

	// Trained small CNN.
	ds, err := dataset.New(dataset.Config{Classes: 4, Size: 8, Seed: 2, NoiseSigma: 0.45})
	if err != nil {
		return nil, err
	}
	tm := train.NewModel(train.Config{InputSize: 8, Channels: 8, Classes: 4, Epochs: 10, BatchesPerEpoch: 40, LearningRate: 0.1, Seed: 2})
	if _, err := tm.Train(ds); err != nil {
		return nil, err
	}
	model, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, InputChannels: 1, Channels: 8, Classes: 4, Weights: tm.Weights()})
	if err != nil {
		return nil, err
	}
	cfg := ReducedConfig()
	cfg.SIHE = sihe.Options{ReLUAlpha: 9, ReLUEps: 1.0 / 32}
	c, err := core.Compile(model, cfg)
	if err != nil {
		return nil, err
	}
	samples := ds.Batch(images, 424242)
	correctPlain, correctEnc := 0, 0
	for _, s := range samples {
		p, err := c.RunPlain(s.Image)
		if err != nil {
			return nil, err
		}
		if tensor.ArgMax(p) == s.Label {
			correctPlain++
		}
		e, err := c.RunSim(s.Image)
		if err != nil {
			return nil, err
		}
		if tensor.ArgMax(e) == s.Label {
			correctEnc++
		}
	}
	row := Tab11Row{
		Model:       "SmallCNN (trained)",
		Unencrypted: float64(correctPlain) / float64(len(samples)),
		Encrypted:   float64(correctEnc) / float64(len(samples)),
	}
	row.Loss = row.Unencrypted - row.Encrypted
	rows = append(rows, row)
	fmt.Fprintf(w, "%-22s %11.1f%% %9.1f%% %6.1f%%\n", row.Model, 100*row.Unencrypted, 100*row.Encrypted, 100*row.Loss)

	// ResNet agreement rows: top-1 agreement between the plaintext
	// reference and the encrypted-arithmetic simulator on the same
	// inputs (the channel Table 11 measures, without the training
	// pipeline; see DESIGN.md substitution #2).
	for _, spec := range ReducedModels() {
		m, err := BuildModel(spec, ScaleReduced)
		if err != nil {
			return nil, err
		}
		cr, err := core.Compile(m, ReducedConfig())
		if err != nil {
			return nil, err
		}
		agree := 0
		for i := 0; i < resnetImages; i++ {
			img := randomImage([]int{1, 3, 8, 8}, uint64(1000+i))
			p, err := cr.RunPlain(img)
			if err != nil {
				return nil, err
			}
			e, err := cr.RunSim(img)
			if err != nil {
				return nil, err
			}
			if tensor.ArgMax(p) == tensor.ArgMax(e) {
				agree++
			}
		}
		row := Tab11Row{
			Model:       spec.Name + " (agreement)",
			Unencrypted: 1,
			Encrypted:   float64(agree) / float64(resnetImages),
		}
		row.Loss = row.Unencrypted - row.Encrypted
		rows = append(rows, row)
		fmt.Fprintf(w, "%-22s %11.1f%% %9.1f%% %6.1f%%\n", row.Model, 100*row.Unencrypted, 100*row.Encrypted, 100*row.Loss)
		runtime.GC()
	}
	return rows, nil
}

func randomImage(shape []int, seed uint64) *tensor.Tensor {
	t := tensor.New(shape...)
	// xorshift-style deterministic fill (rand/v2 unavailable here to
	// keep the stream stable across Go versions).
	x := seed*2654435761 + 1
	for i := range t.Data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t.Data[i] = float64(int64(x%2000)-1000) / 1000
	}
	return t
}
