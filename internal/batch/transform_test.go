package batch

import (
	"math/rand/v2"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/ir"
)

// buildTestModule emits a small but representative CKKS program over L
// logical slots: an encoded mask multiply, a rotate-and-add reduction,
// a scalar multiply, a polynomial and a reinterpret — every lane-relevant
// op class the compiler produces.
func buildTestModule(l int) *ir.Module {
	mod := ir.NewModule("batchtest")
	f := mod.NewFunc("main")
	x := f.NewParam("x", ir.CipherType(l))
	x.Level, x.Scale = 3, 1 << 40

	mask := make([]float64, l)
	for i := range mask {
		mask[i] = float64(i%5) * 0.25
	}
	cm := f.NewConst("mask", ir.VectorType(l), mask)
	pt := f.Emit(ckksir.OpEncode, ir.PlainType(l), []*ir.Value{cm},
		map[string]any{"level": 3, "scale": float64(1 << 40)})
	pt.Level, pt.Scale = 3, 1<<40

	prod := f.Emit(ckksir.OpMulPlain, ir.CipherType(l), []*ir.Value{x, pt}, nil)
	prod.Level, prod.Scale = 3, 1<<80
	rs := f.Emit(ckksir.OpRescale, ir.CipherType(l), []*ir.Value{prod}, nil)
	rs.Level, rs.Scale = 2, 1<<40

	acc := rs
	for k := 1; k < l; k <<= 1 {
		rot := f.Emit(ckksir.OpRotate, ir.CipherType(l), []*ir.Value{acc}, map[string]any{"k": k})
		rot.Level, rot.Scale = acc.Level, acc.Scale
		sum := f.Emit(ckksir.OpAdd, ir.CipherType(l), []*ir.Value{acc, rot}, nil)
		sum.Level, sum.Scale = acc.Level, acc.Scale
		acc = sum
	}
	mc := f.Emit(ckksir.OpMulConst, ir.CipherType(l), []*ir.Value{acc},
		map[string]any{"c": 0.5, "const_scale": 1.0})
	mc.Level, mc.Scale = acc.Level, acc.Scale
	po := f.Emit(ckksir.OpPoly, ir.CipherType(l), []*ir.Value{mc},
		map[string]any{"coeffs": []float64{0.1, 0.9, 0, -0.3}, "target": 0})
	po.Level, po.Scale = 1, 1<<40
	ri := f.Emit(ckksir.OpReinterpret, ir.CipherType(l), []*ir.Value{po},
		map[string]any{"factor": 2.0})
	ri.Level, ri.Scale = 1, 1<<39
	f.Ret = ri
	return mod
}

func TestTransformStructure(t *testing.T) {
	l, stride := 8, 4
	mod := buildTestModule(l)
	bm, err := Transform(mod, stride)
	if err != nil {
		t.Fatal(err)
	}
	sf, bf := mod.Main(), bm.Main()
	if len(bf.Body) != len(sf.Body) {
		t.Fatalf("batched body has %d instrs, solo %d", len(bf.Body), len(sf.Body))
	}
	for i, in := range sf.Body {
		bin := bf.Body[i]
		if bin.Op != in.Op {
			t.Fatalf("instr %d: op %s != %s", i, bin.Op, in.Op)
		}
		if bin.Result.Level != in.Result.Level || bin.Result.Scale != in.Result.Scale {
			t.Fatalf("instr %d: level/scale not preserved", i)
		}
		switch in.Op {
		case ckksir.OpRotate:
			if got, want := bin.AttrInt("k", 0), in.AttrInt("k", 0)*stride; got != want {
				t.Fatalf("instr %d: rotation %d, want %d", i, got, want)
			}
		case ckksir.OpEncode:
			solo := in.Args[0].Const.([]float64)
			rep := bin.Args[0].Const.([]float64)
			if len(rep) != len(solo)*stride {
				t.Fatalf("instr %d: replicated const length %d, want %d", i, len(rep), len(solo)*stride)
			}
			for b := 0; b < stride; b++ {
				lane, err := ExtractLane(rep, b, stride)
				if err != nil {
					t.Fatal(err)
				}
				for j := range solo {
					if lane[j] != solo[j] {
						t.Fatalf("instr %d: lane %d of replicated const differs at %d", i, b, j)
					}
				}
			}
		}
	}
	// The original module must be untouched.
	if k := sf.Body[3].AttrInt("k", 0); k != 1 {
		t.Fatalf("transform mutated the source module: first rotation now %d", k)
	}
	if got := Rotations(bm); len(got) == 0 || got[0] != stride {
		t.Fatalf("Rotations(batched) = %v, want first %d", got, stride)
	}
}

// TestSimDifferentialBitIdentical is the core batching-correctness
// property: run B independent inputs through the solo module, pack the
// same inputs into lanes of one strided vector, run once through the
// transformed module, extract each lane — every float64 must be
// BIT-IDENTICAL (==, no epsilon), including partially filled batches.
func TestSimDifferentialBitIdentical(t *testing.T) {
	l, stride := 8, 4
	mod := buildTestModule(l)
	bm, err := Transform(mod, stride)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 9))
	for _, fill := range []int{1, 2, stride} { // partial and full batches
		inputs := make([][]float64, fill)
		packed := make([]float64, l*stride)
		for b := range inputs {
			inputs[b] = make([]float64, l)
			for i := range inputs[b] {
				inputs[b][i] = rng.Float64()*2 - 1
			}
			exp, err := ExpandLane(inputs[b], b, stride)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range exp {
				packed[i] += x
			}
		}
		batched, err := ckksir.Run(bm.Main(), packed)
		if err != nil {
			t.Fatal(err)
		}
		for b := range inputs {
			solo, err := ckksir.Run(mod.Main(), inputs[b])
			if err != nil {
				t.Fatal(err)
			}
			lane, err := ExtractLane(batched, b, stride)
			if err != nil {
				t.Fatal(err)
			}
			for i := range solo {
				if lane[i] != solo[i] {
					t.Fatalf("fill %d lane %d slot %d: batched %v != solo %v (not bit-identical)",
						fill, b, i, lane[i], solo[i])
				}
			}
		}
	}
}
