// Package core is the compiler driver — the paper's primary
// contribution glued end to end: ONNX front end → NN IR → VECTOR IR →
// SIHE IR → CKKS IR (→ POLY IR on request), with per-level timing
// (Figure 5), automatic ReLU-bound calibration, security parameter selection
// (Table 10), and handles for running the result on the real FHE
// runtime or the plaintext reference.
package core

import (
	"fmt"
	"slices"
	"time"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/polyir"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vecir"
)

// Config assembles the options of every stage.
type Config struct {
	Vec  vecir.Options
	SIHE sihe.Options
	CKKS ckksir.Options
	// Expert compiles the hand-tuned baseline configuration (used for
	// the paper's Figures 6 and 7 comparisons): the same multiplexed
	// convolutions as Lee et al. [35], but with a hand-provisioned level
	// budget (slack) instead of the compiler's tight per-segment
	// minimum, full-chain key generation, and a coarser bootstrap DFT
	// grouping (modelled in the cost model).
	Expert bool
	Seed   uint64
}

// ReLU bound calibration runs the network on calibrationSamples random
// inputs and multiplies the observed maxima by calibrationHeadroom.
const (
	calibrationSamples  = 4
	calibrationHeadroom = 1.5
)

// Compiled is the result of a full compilation.
type Compiled struct {
	Name    string
	NN      *ir.Module
	Vec     *vecir.Result
	SIHE    *ir.Module
	CKKS    *ckksir.Result
	Timings []ir.PassTiming
}

// VectorLen returns the slot-vector length of the compiled program.
func (c *Compiled) VectorLen() int { return c.Vec.InLayout.L }

// Compile runs the whole pipeline on an ONNX model.
func Compile(model *onnx.Model, cfg Config) (*Compiled, error) {
	cfg = cfg.withDefaults()
	fe, err := frontEnd(model, cfg)
	if err != nil {
		return nil, err
	}
	return fe.backEnd(cfg.CKKS)
}

func (cfg Config) withDefaults() Config {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Expert && cfg.CKKS.ExpertSlack == 0 {
		// A hand-provisioned chain keeps a generic level budget rather
		// than the compiler's tight per-segment minimum.
		cfg.CKKS.ExpertSlack = 1
	}
	return cfg
}

// record appends one pass's time since start.
func (c *Compiled) record(level, pass string, start time.Time) {
	c.Timings = append(c.Timings, ir.PassTiming{Pass: pass, Level: level, Duration: time.Since(start)})
}

// frontEnd runs the passes that no CKKS option reaches: NN IR (import,
// fuse, calibrate), VECTOR IR and SIHE IR. The result has no CKKS
// program; backEnd lowers it under one set of CKKS options.
func frontEnd(model *onnx.Model, cfg Config) (*Compiled, error) {
	out := &Compiled{Name: model.Graph.Name}

	// NN IR: import, fuse, calibrate.
	start := time.Now()
	nn, err := nnir.Import(model)
	if err != nil {
		return nil, err
	}
	out.record("NN", "import", start)
	start = time.Now()
	pm := &ir.PassManager{}
	pm.Add(nnir.FuseConvBatchNorm(), ir.DCE())
	if err := pm.Run(nn); err != nil {
		return nil, err
	}
	out.record("NN", "fuse+dce", start)
	start = time.Now()
	if err := nnir.CalibrateReLUBounds(nn.Main(), calibrationSamples, calibrationHeadroom, cfg.Seed); err != nil {
		return nil, err
	}
	out.record("NN", "calibrate-relu", start)
	out.NN = nn

	// VECTOR IR.
	start = time.Now()
	vres, err := vecir.Lower(nn, cfg.Vec)
	if err != nil {
		return nil, err
	}
	out.record("VECTOR", "lower", start)
	start = time.Now()
	pmv := &ir.PassManager{}
	pmv.Add(ir.CSE(), ir.DCE())
	if err := pmv.Run(vres.Module); err != nil {
		return nil, err
	}
	out.record("VECTOR", "cse+dce", start)
	out.Vec = vres

	// SIHE IR.
	start = time.Now()
	sm, err := sihe.Lower(vres.Module, cfg.SIHE)
	if err != nil {
		return nil, err
	}
	out.record("SIHE", "lower", start)
	out.SIHE = sm
	return out, nil
}

// backEnd lowers a front end's SIHE program to CKKS IR under opts. It
// reads the front end's modules without changing them, so one front end
// serves every plan of a search; the result shares them and carries the
// front end's timings followed by its own.
func (fe *Compiled) backEnd(opts ckksir.Options) (*Compiled, error) {
	out := &Compiled{Name: fe.Name, NN: fe.NN, Vec: fe.Vec, SIHE: fe.SIHE, Timings: slices.Clip(fe.Timings)}
	start := time.Now()
	cres, err := ckksir.Lower(fe.SIHE, opts)
	if err != nil {
		return nil, err
	}
	out.record("CKKS", "lower", start)
	start = time.Now()
	pmc := &ir.PassManager{}
	pmc.Add(ckksir.LazyRescale(), ir.DCE())
	if err := pmc.Run(cres.Module); err != nil {
		return nil, err
	}
	out.record("CKKS", "lazy-rescale", start)
	for _, k := range ckksir.RotationKeys(cres.Module.Main()) {
		cres.Rotations = append(cres.Rotations, k.K)
	}
	out.CKKS = cres
	return out, nil
}

// LowerPoly expands the compiled CKKS program into the POLY IR with its
// fusion passes applied, timed into the POLY level of the compile-time
// breakdown (Figure 5). Nothing executes the POLY IR, so Compile leaves
// it to the callers that analyse it.
func (c *Compiled) LowerPoly() (*ir.Module, error) {
	start := time.Now()
	pm, err := polyir.LowerFromCKKS(c.CKKS)
	if err != nil {
		return nil, err
	}
	c.Timings = append(c.Timings, ir.PassTiming{Pass: "lower+fuse", Level: "POLY", Duration: time.Since(start)})
	return pm, nil
}

// RunPlain executes the unencrypted reference on an input image.
func (c *Compiled) RunPlain(image *tensor.Tensor) (*tensor.Tensor, error) {
	f := c.NN.Main()
	return nnir.Run(f, map[string]*tensor.Tensor{f.Params[0].Name: image})
}

// RunSim executes the SIHE-level simulator: identical arithmetic to the
// encrypted run (including the polynomial ReLU) but without noise. Used
// by the accuracy experiments in place of hour-long FHE runs.
func (c *Compiled) RunSim(image *tensor.Tensor) (*tensor.Tensor, error) {
	packed, err := c.Vec.InLayout.Pack(image.Data)
	if err != nil {
		return nil, err
	}
	outVec, err := sihe.Run(c.SIHE.Main(), packed)
	if err != nil {
		return nil, err
	}
	vals, err := c.Vec.OutLayout.Unpack(outVec)
	if err != nil {
		return nil, err
	}
	return tensor.FromData(vals, c.Vec.OutLayout.C), nil
}

// LevelBreakdown aggregates compile time per IR level (Figure 5).
func (c *Compiled) LevelBreakdown() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range c.Timings {
		out[t.Level] += t.Duration
	}
	return out
}

// Summary prints headline statistics.
func (c *Compiled) Summary() string {
	vecStats := vecir.Analyze(c.Vec.Module.Main())
	return fmt.Sprintf("%s: vecLen=%d rotations=%d (distinct %d) mults=%d relus=%d | logN=%d chain=%d levels bootstraps=%d keys(rot)=%d",
		c.Name, c.VectorLen(), vecStats.Rotations, vecStats.DistinctRotations, vecStats.Mults, vecStats.ReLUs,
		c.CKKS.Literal.LogN, len(c.CKKS.Literal.LogQ), c.CKKS.Bootstraps, len(ckksir.RotationKeys(c.CKKS.Module.Main())))
}
