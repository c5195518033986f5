package ckksir_test

import (
	"testing"

	ace "antace"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/ir"
	"antace/internal/onnx"
)

// TestRotationAnalysis: the key set of a compiled program covers every
// rotation of the module that runs, each at exactly the highest level a
// rotation by that amount reads its source at: a ckks.rotate's source,
// a ckks.linear's input for its babies and giants. The models go through
// core.Compile, whose LazyRescale moves rescales past rotations after
// lowering, so the levels lowering saw are not the ones that run.
func TestRotationAnalysis(t *testing.T) {
	paper := func() core.Config {
		cfg := ace.PaperProfile()
		cfg.Vec.AnalysisOnly = true
		return cfg
	}
	cases := []struct {
		name    string
		slow    bool
		build   func() (*onnx.Model, error)
		profile func() core.Config
	}{
		{"gemv", false, func() (*onnx.Model, error) { return onnx.BuildLinear(512, 10, 42) }, ace.TestProfile},
		{"small-cnn", false, func() (*onnx.Model, error) {
			return onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
		}, ace.TestProfile},
		{"resnet8", false, func() (*onnx.Model, error) {
			return onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
		}, ace.TestProfile},
		{"paper-resnet20", true, func() (*onnx.Model, error) { return onnx.BuildResNet(onnx.ResNetConfig{Depth: 20}) }, paper},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("compiles at paper scale")
			}
			m, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := core.Compile(m, tc.profile())
			if err != nil {
				t.Fatal(err)
			}
			f := prog.CKKS.Module.Main()
			keys := ckksir.RotationKeys(f)
			if len(keys) == 0 {
				t.Fatal("no rotation keys")
			}
			level := map[int]int{}
			for i, k := range keys {
				if i > 0 && k.K <= keys[i-1].K {
					t.Fatalf("keys %v are not strictly ascending", keys)
				}
				level[k.K] = k.Level
			}
			tight := map[int]bool{}
			for _, r := range rotations(f) {
				k, l := r.K, r.Level
				want, ok := level[k]
				if !ok {
					t.Fatalf("rotation by %d has no key", k)
				}
				if l > want {
					t.Fatalf("rotation by %d reads level %d, its key stops at %d", k, l, want)
				}
				tight[k] = tight[k] || l == want
			}
			for _, k := range keys {
				if !tight[k.K] {
					t.Errorf("key %d at level %d: no rotation by it reads that level", k.K, k.Level)
				}
			}
		})
	}
}

// rotations lists every non-zero rotation f runs with the level it reads
// its source at.
func rotations(f *ir.Func) []ckksir.RotationKey {
	var out []ckksir.RotationKey
	add := func(ks []int, level int) {
		for _, k := range ks {
			if k != 0 {
				out = append(out, ckksir.RotationKey{K: k, Level: level})
			}
		}
	}
	for _, in := range f.Body {
		switch in.Op {
		case ckksir.OpRotate:
			add([]int{in.AttrInt("k", 0)}, in.Args[0].Level)
		case ckksir.OpLinear:
			add(in.AttrInts("b"), in.Args[0].Level)
			add(in.AttrInts("g"), in.Args[0].Level)
		}
	}
	return out
}
