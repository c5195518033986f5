package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	ace "antace"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/experiments"
	"antace/internal/onnx"
	"antace/internal/vm"
)

// zooEntry is one model of the compile zoo, held as ONNX bytes so every
// round pays the decode as well as the compile.
type zooEntry struct {
	name string // suffix of core.compile_ms.<name>
	raw  []byte
	cfg  core.Config
	auto bool // plan search (core.CompileAuto) instead of one compile
}

const (
	zooSetups     = 25
	zooRoundLimit = 55 * time.Second // 10× a round's reference time
)

// buildZoo is the compile_zoo set-up: build and serialise the models. It
// ends with one small compile so lazily initialised tables are in place
// before the first timed round.
func buildZoo() ([]zooEntry, error) {
	paper := experiments.PaperConfig()
	paper.Vec.AnalysisOnly = true
	reduced := func(depth int) onnx.ResNetConfig {
		return onnx.ResNetConfig{Depth: depth, InputSize: 8, BaseChannels: 4}
	}
	specs := []struct {
		name string
		cfg  onnx.ResNetConfig
		prof core.Config
		auto bool
	}{
		{"paper_resnet20", onnx.ResNetConfig{Depth: 20}, paper, false},
		{"resnet8", reduced(8), ace.TestProfile(), false},
		{"resnet14", reduced(14), ace.TestProfile(), false},
		{"resnet20", reduced(20), ace.TestProfile(), false},
		{"resnet32", reduced(32), ace.TestProfile(), false},
		{"auto_resnet20", reduced(20), ace.TestProfile(), true},
	}
	zoo := make([]zooEntry, 0, len(specs))
	for _, s := range specs {
		m, err := onnx.BuildResNet(s.cfg)
		if err != nil {
			return nil, err
		}
		zoo = append(zoo, zooEntry{name: s.name, raw: onnx.Marshal(m), cfg: s.prof, auto: s.auto})
	}
	if _, err := compileEntry(zoo[1]); err != nil {
		return nil, err
	}
	return zoo, nil
}

// compiled is one zoo entry's compile as timed from outside.
type compiled struct {
	name            string
	start           time.Time
	decode, compile time.Duration
	prog            *core.Compiled
	plans           int // candidates priced by the plan search
}

func compileEntry(e zooEntry) (*compiled, error) {
	c := &compiled{name: e.name, start: time.Now()}
	m, err := onnx.Unmarshal(e.raw)
	if err != nil {
		return nil, err
	}
	c.decode = time.Since(c.start)
	if e.auto {
		var rep *core.PlanReport
		if c.prog, rep, err = core.CompileAuto(m, e.cfg, costmodel.DefaultCalibration()); err == nil {
			c.plans = len(rep.Candidates)
		}
	} else {
		c.prog, err = core.Compile(m, e.cfg)
	}
	c.compile = time.Since(c.start) - c.decode
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	return c, nil
}

// irShape is what must repeat exactly when the same model is compiled
// again: the instruction stream of the executable CKKS function and the
// sizes the run time and key memory follow from.
type irShape struct {
	fingerprint                   uint64
	vec, sihe, ckks               int
	rotations, bootstraps, levels int
	rotationKeys, logN            int
}

func shapeOf(p *core.Compiled) irShape {
	s := irShape{
		fingerprint:  vm.Fingerprint(p.CKKS.Module.Main()),
		vec:          len(p.Vec.Module.Main().Body),
		sihe:         len(p.SIHE.Main().Body),
		ckks:         len(p.CKKS.Module.Main().Body),
		bootstraps:   p.CKKS.Bootstraps,
		levels:       len(p.CKKS.Literal.LogQ),
		rotationKeys: len(p.CKKS.Rotations),
		logN:         p.CKKS.Literal.LogN,
	}
	for _, in := range p.CKKS.Module.Main().Body {
		if in.Op == ckksir.OpRotate {
			s.rotations++
		}
	}
	return s
}

func addIRSizes(layers map[string]float64, p *core.Compiled) {
	s := shapeOf(p)
	layers["vecir.instrs"] += float64(s.vec)
	layers["sihe.instrs"] += float64(s.sihe)
	layers["ckksir.instrs"] += float64(s.ckks)
	layers["ckksir.rotations"] += float64(s.rotations)
	layers["ckksir.bootstraps"] += float64(s.bootstraps)
	layers["ckksir.levels"] += float64(s.levels)
	layers["ckksir.rotation_keys"] += float64(s.rotationKeys)
	layers["ckksir.log_n"] += float64(s.logN)
}

// passMetrics names the per-layer metric of each pass core.Compile times.
var passMetrics = map[string]string{
	"NN/import":         "nnir.import_ms",
	"NN/fuse+dce":       "nnir.fuse_dce_ms",
	"NN/calibrate-relu": "nnir.calibrate_relu_ms",
	"VECTOR/lower":      "vecir.lower_ms",
	"VECTOR/cse+dce":    "vecir.cse_dce_ms",
	"SIHE/lower":        "sihe.lower_ms",
	"CKKS/lower":        "ckksir.lower_ms",
	"CKKS/lazy-rescale": "ckksir.lazy_rescale_ms",
}

func addPassTimes(layers map[string]float64, p *core.Compiled) {
	for _, t := range p.Timings {
		if name, ok := passMetrics[t.Level+"/"+t.Pass]; ok {
			layers[name] += ms(t.Duration)
		}
	}
}

func passSpans(p *core.Compiled) (names []string, durs []time.Duration) {
	for _, t := range p.Timings {
		names = append(names, t.Level+"/"+t.Pass)
		durs = append(durs, t.Duration)
	}
	return names, durs
}

func runCompileZoo(ctx *runCtx) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	root := ctx.rec.add(0, 0, "workload", time.Now(), time.Now())

	var zoo []zooEntry
	var builds []float64
	for i := 0; i < zooSetups; i++ {
		start := time.Now()
		var err error
		if zoo, err = buildZoo(); err != nil {
			return o, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
		if i == zooSetups-1 {
			ctx.rec.add(root, 0, "setup", start, time.Now())
		}
	}
	o.setups, o.setupS = zooSetups, median(builds)

	// Each round compiles the whole zoo once, in an order drawn from the
	// seed. Every compile after a model's first doubles as the determinism
	// check, which is why a run always makes at least two rounds.
	rng := rand.New(rand.NewPCG(ctx.seed, 0x200))
	first := map[string]irShape{}
	tracedRounds := 0
	for round := 0; round < 2 || o.elapsed < ctx.seconds; round++ {
		order := rng.Perm(len(zoo))
		var done []*compiled
		o.attempted++
		cpu0 := selfCPU()
		start := time.Now()
		err := withDeadline(zooRoundLimit, func() error {
			for _, k := range order {
				c, err := compileEntry(zoo[k])
				if err != nil {
					return err
				}
				done = append(done, c)
			}
			return nil
		})
		took := time.Since(start)
		o.elapsed += took.Seconds()
		cpu := selfCPU() - cpu0
		if err != nil {
			return o, fmt.Errorf("round %d: %w", round, err)
		}
		repeats := true
		for _, c := range done {
			shape := shapeOf(c.prog)
			if want, seen := first[c.name]; !seen {
				first[c.name] = shape
			} else if shape != want {
				repeats = false
				fmt.Fprintf(os.Stderr, "bench: round %d: %s compiled differently: %+v, first %+v\n", round, c.name, shape, want)
			}
		}
		if !repeats {
			continue
		}
		o.succeeded++
		if !ctx.traced() || round%2 == 0 {
			o.ops = append(o.ops, took.Seconds())
			o.cpuPerOp = append(o.cpuPerOp, cpu)
			continue
		}
		o.tracedOps = append(o.tracedOps, took.Seconds())
		tracedRounds++
		id := ctx.rec.add(root, round+1, "round", start, start.Add(took))
		for _, c := range done {
			ctx.rec.add(id, round+1, "onnx.decode:"+c.name, c.start, c.start.Add(c.decode))
			cid := ctx.rec.add(id, round+1, "compile:"+c.name, c.start.Add(c.decode), c.start.Add(c.decode+c.compile))
			o.layers["onnx.decode_ms"] += ms(c.decode)
			if c.plans > 0 {
				o.layers["core.compile_auto_ms"] += ms(c.compile)
				o.layers["costmodel.plans_priced"] += float64(c.plans)
				continue
			}
			names, durs := passSpans(c.prog)
			ctx.rec.addSeq(cid, round+1, c.start.Add(c.decode), names, durs)
			o.layers["core.compile_ms."+c.name] += ms(c.compile)
			addPassTimes(o.layers, c.prog)
			addIRSizes(o.layers, c.prog)
		}
	}
	ctx.rec.finish(root, time.Now())
	for name := range o.layers {
		o.layers[name] /= float64(tracedRounds) // per round
	}
	return o, nil
}
