package batch

import (
	"math/rand/v2"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/onnx"
	"antace/internal/sihe"
)

// TestCompiledModelSimDifferential runs the bit-identity differential on
// a real compiler artifact (the demo linear classifier) instead of a
// hand-written module, so the transform is exercised against everything
// the lowering pipeline actually emits — vecir masks, the baby and giant
// rotations of the derived split, scale management.
func TestCompiledModelSimDifferential(t *testing.T) {
	model, err := onnx.BuildLinear(64, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(model, core.Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{LogScale: 40, Mode: ckksir.BootstrapAuto, IgnoreSecurity: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	mod := prog.CKKS.Module
	l := prog.VectorLen()
	// A 64-wide gemv splits into at most 16 baby and giant rotations; 63
	// would be the naive one-rotation-per-diagonal program.
	if n := len(ckksir.RotationKeys(mod.Main())); n == 0 || n > 16 {
		t.Fatalf("gemv compiled to %d rotation amounts, want a baby/giant split of at most 16", n)
	}
	stride := 4
	bm, err := Transform(mod, stride)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 13))
	inputs := make([][]float64, 3) // partial batch: 3 of 4 lanes occupied
	packed := make([]float64, l*stride)
	for b := range inputs {
		inputs[b] = make([]float64, l)
		for i := 0; i < 64; i++ {
			inputs[b][i] = rng.Float64()*0.5 - 0.25
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
				t.Fatalf("lane %d slot %d: batched %v != solo %v (not bit-identical)", b, i, lane[i], solo[i])
			}
		}
	}
}
