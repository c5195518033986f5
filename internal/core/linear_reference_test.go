package core_test

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	ace "antace"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/experiments"
	"antace/internal/ir"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/vecir"
)

// referenceModels are the models the linear-layer lowering is held to
// its reference on: a gemv, a small CNN, the reduced ResNets and the
// paper-scale ResNet-20 as AnalysisOnly compiles it (not executable).
func referenceModels() []struct {
	name   string
	build  func() (*onnx.Model, error)
	config core.Config
	run    bool
} {
	reduced := func(depth int) func() (*onnx.Model, error) {
		return func() (*onnx.Model, error) {
			return onnx.BuildResNet(onnx.ResNetConfig{Depth: depth, InputSize: 8, BaseChannels: 4})
		}
	}
	paper := experiments.PaperConfig()
	paper.Vec.AnalysisOnly = true
	return []struct {
		name   string
		build  func() (*onnx.Model, error)
		config core.Config
		run    bool
	}{
		{"gemv", func() (*onnx.Model, error) { return onnx.BuildLinear(512, 10, 42) }, ace.TestProfile(), true},
		{"small-cnn", func() (*onnx.Model, error) {
			return onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
		}, ace.TestProfile(), true},
		{"resnet8", reduced(8), ace.TestProfile(), true},
		{"resnet14", reduced(14), ace.TestProfile(), true},
		{"resnet20", reduced(20), ace.TestProfile(), true},
		{"resnet32", reduced(32), ace.TestProfile(), true},
		{"paper-resnet20", func() (*onnx.Model, error) { return onnx.BuildResNet(onnx.ResNetConfig{Depth: 20}) }, paper, false},
	}
}

// expandLinear rewrites every vec.linear of f into the roll/mul/add
// sequence the lowering emitted before a layer was one instruction: the
// distinct baby rolls of the input, ascending; per giant group its
// masked products summed left to right and rolled by the giant, summed
// into the total.
func expandLinear(f *ir.Func) {
	var body []*ir.Instr
	emit := func(op string, args []*ir.Value, attrs map[string]any) *ir.Value {
		res := f.NewValue("", args[0].Type)
		in := &ir.Instr{Op: op, Args: args, Attrs: attrs, Result: res}
		res.Def = in
		body = append(body, in)
		return res
	}
	roll := func(v *ir.Value, k int) *ir.Value {
		if k == 0 {
			return v
		}
		return emit(vecir.OpRoll, []*ir.Value{v}, map[string]any{"k": k})
	}
	add := func(a, b *ir.Value) *ir.Value {
		if a == nil {
			return b
		}
		return emit(vecir.OpAdd, []*ir.Value{a, b}, nil)
	}
	replace := map[*ir.Value]*ir.Value{}
	for _, in := range f.Body {
		for i, a := range in.Args {
			if r, ok := replace[a]; ok {
				in.Args[i] = r
			}
		}
		if in.Op != vecir.OpLinear {
			body = append(body, in)
			continue
		}
		x, b, g := in.Args[0], in.AttrInts("b"), in.AttrInts("g")
		babies := map[int]*ir.Value{}
		distinct := slices.Clone(b)
		sort.Ints(distinct)
		for _, k := range slices.Compact(distinct) {
			babies[k] = roll(x, k)
		}
		var acc, sum *ir.Value
		for i, mask := range in.Args[1:] {
			sum = add(sum, emit(vecir.OpMul, []*ir.Value{babies[b[i]], mask}, nil))
			if i+1 == len(b) || g[i+1] != g[i] {
				acc, sum = add(acc, roll(sum, g[i])), nil
			}
		}
		replace[in.Result] = acc
	}
	f.Body = body
	if r, ok := replace[f.Ret]; ok {
		f.Ret = r
	}
}

// lowerReference takes a compiled model's VECTOR module through the rest
// of the pipeline with every linear layer expanded, as core.Compile ran
// it before: CSE and DCE, SIHE, CKKS, LazyRescale and DCE.
func lowerReference(t *testing.T, c *core.Compiled, cfg core.Config) (vec, sm *ir.Module, res *ckksir.Result) {
	t.Helper()
	vec = c.Vec.Module
	expandLinear(vec.Main())
	pm := &ir.PassManager{}
	pm.Add(ir.CSE(), ir.DCE())
	if err := pm.Run(vec); err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyFunc(vec.Main()); err != nil {
		t.Fatal(err)
	}
	sm, err := sihe.Lower(vec, cfg.SIHE)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = ckksir.Lower(sm, cfg.CKKS); err != nil {
		t.Fatal(err)
	}
	pmc := &ir.PassManager{}
	pmc.Add(ckksir.LazyRescale(), ir.DCE())
	if err := pmc.Run(res.Module); err != nil {
		t.Fatal(err)
	}
	return vec, sm, res
}

// mask is one encoded linear-layer weight as the CKKS program holds it.
type mask struct {
	vec   []float64
	level int
	scale float64
	name  string
	// basisOK: encoded over Q∪P exactly when its baby is not 0.
	basisOK bool
}

// linearMasks lists the masks of f's ckks.linear instructions, in order.
func linearMasks(f *ir.Func) []mask {
	var out []mask
	for _, in := range f.Body {
		if in.Op == ckksir.OpLinear {
			for i, p := range in.Args[1:] {
				c := p.Def.Args[0]
				qp := p.Def.Attr("qp") == true
				out = append(out, mask{c.Const.([]float64), p.Level, p.Scale, c.Name, qp == (in.AttrInts("b")[i] != 0)})
			}
		}
	}
	return out
}

// productMasks lists the plaintexts of f's ckks.mul_plain instructions,
// in order: in the expanded program, every one is a mask.
func productMasks(f *ir.Func) []mask {
	var out []mask
	for _, in := range f.Body {
		if in.Op == ckksir.OpMulPlain {
			p := in.Args[1]
			c := p.Def.Args[0]
			out = append(out, mask{c.Const.([]float64), p.Level, p.Scale, c.Name, true})
		}
	}
	return out
}

// TestLinearMatchesItsExpansion holds the one-instruction linear layer to
// the roll/mul/add expansion it replaced, on every reference model: the
// same floats at the VECTOR, SIHE and CKKS levels (==, not close), the
// same rotation keys at the same levels, and the same masks at the same
// levels and scales, now over Q∪P against every baby but 0.
func TestLinearMatchesItsExpansion(t *testing.T) {
	for _, tc := range referenceModels() {
		t.Run(tc.name, func(t *testing.T) {
			compile := func() *core.Compiled {
				m, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.Compile(m, tc.config)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			c, ref := compile(), compile()
			vec, sm, res := lowerReference(t, ref, tc.config)

			if got, want := ckksir.RotationKeys(c.CKKS.Module.Main()), ckksir.RotationKeys(res.Module.Main()); !slices.Equal(got, want) {
				t.Errorf("rotation keys %v, expansion's %v", got, want)
			}
			got, want := linearMasks(c.CKKS.Module.Main()), productMasks(res.Module.Main())
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%d masks, expansion has %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if !slices.Equal(g.vec, w.vec) || g.level != w.level || g.scale != w.scale || g.name != w.name || !g.basisOK {
					t.Fatalf("mask %d: %s at level %d scale %g (basis right: %v), expansion's %s at level %d scale %g",
						i, g.name, g.level, g.scale, g.basisOK, w.name, w.level, w.scale)
				}
			}
			if !tc.run {
				return
			}
			rng := rand.New(rand.NewPCG(7, 11))
			input := make([]float64, c.VectorLen())
			for i := range input {
				input[i] = rng.Float64() - 0.5
			}
			for _, lvl := range []struct {
				name      string
				run       func(*ir.Func, []float64) ([]float64, error)
				got, want *ir.Func
			}{
				{"vecir", vecir.Run, c.Vec.Module.Main(), vec.Main()},
				{"sihe", sihe.Run, c.SIHE.Main(), sm.Main()},
				{"ckksir", ckksir.Run, c.CKKS.Module.Main(), res.Module.Main()},
			} {
				got, err := lvl.run(lvl.got, input)
				if err != nil {
					t.Fatal(err)
				}
				want, err := lvl.run(lvl.want, input)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s.Run differs from the expansion's", lvl.name)
				}
			}
		})
	}
}

// TestNoValueRotatedTwice: with every linear layer's masked sums one
// ckks.linear, the ckks.rotate instructions left — fold steps, global
// sums and period alignment — each rotate a different value, so no two rotations could share a
// decomposition. It also reports what a layer that reads the same value
// as another now recomputes: its input's decomposition, and every
// rotation CSE had merged between the two layers.
func TestNoValueRotatedTwice(t *testing.T) {
	for _, tc := range referenceModels() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(m, tc.config)
			if err != nil {
				t.Fatal(err)
			}
			f := c.CKKS.Module.Main()
			rotated, layers := map[*ir.Value]int{}, map[*ir.Value]int{}
			executed := 0
			for _, in := range f.Body {
				switch in.Op {
				case ckksir.OpRotate:
					if rotated[in.Args[0]]++; rotated[in.Args[0]] > 1 {
						t.Fatalf("%s is rotated twice", in.Args[0])
					}
					executed++
				case ckksir.OpLinear:
					layers[in.Args[0]]++
					s := ckksir.LinearSplit(in)
					executed += s.Babies + s.Giants
				}
			}
			shared := 0
			for _, n := range layers {
				if n > 1 {
					shared++
				}
			}
			m, err = tc.build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Compile(m, tc.config)
			if err != nil {
				t.Fatal(err)
			}
			_, _, res := lowerReference(t, ref, tc.config)
			before := res.Module.Main().InstrCount(ckksir.OpRotate)
			t.Logf("%d values read by more than one linear layer; %d rotations executed, %d before (%d recomputed)",
				shared, executed, before, executed-before)
		})
	}
}
