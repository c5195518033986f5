package ckksir_test

import (
	"testing"

	ace "antace"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/ir"
	"antace/internal/onnx"
	"antace/internal/vm"
)

// TestLazyRescaleIdleOnZoo lowers every model of the compile zoo (the
// benchmark's compile_zoo: paper-scale ResNet-20 under AnalysisOnly and
// four reduced ResNets under TestProfile, the plan search's ResNet-20
// under each bootstrap policy it tries) and checks that LazyRescale
// changes nothing there: its first round reports no change, and the
// program after LazyRescale and DCE has the fingerprint of the program
// after DCE alone. The lowering already places each rescale where the
// pass would move it; the pass stays in the pipeline, timed, until it is
// taken out.
func TestLazyRescaleIdleOnZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles at paper scale")
	}
	paper := ace.PaperProfile()
	paper.Vec.AnalysisOnly = true
	reduced := func(depth int) onnx.ResNetConfig {
		return onnx.ResNetConfig{Depth: depth, InputSize: 8, BaseChannels: 4}
	}
	for _, tc := range []struct {
		name  string
		cfg   onnx.ResNetConfig
		prof  core.Config
		modes []ckksir.BootstrapMode
	}{
		{"paper_resnet20", onnx.ResNetConfig{Depth: 20}, paper, nil},
		{"resnet8", reduced(8), ace.TestProfile(), nil},
		{"resnet14", reduced(14), ace.TestProfile(), nil},
		{"resnet20", reduced(20), ace.TestProfile(), []ckksir.BootstrapMode{ckksir.BootstrapAlways, ckksir.BootstrapAuto}},
		{"resnet32", reduced(32), ace.TestProfile(), nil},
	} {
		m, err := onnx.BuildResNet(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Compile(m, tc.prof)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		modes := tc.modes
		if modes == nil {
			modes = []ckksir.BootstrapMode{tc.prof.CKKS.Mode}
		}
		for _, mode := range modes {
			opts := tc.prof.CKKS
			opts.Mode = mode
			lower := func() *ir.Module {
				res, err := ckksir.Lower(p.SIHE, opts)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				return res.Module
			}
			dce := lower()
			if err := ir.DCE().Run(dce); err != nil {
				t.Fatal(err)
			}
			lazy := lower()
			if ckksir.LazyRescaleOnce(lazy.Main()) {
				t.Errorf("%s (mode %d): LazyRescale's first round changed the program", tc.name, mode)
			}
			if err := ckksir.LazyRescale().Run(lazy); err != nil {
				t.Fatal(err)
			}
			if err := ir.DCE().Run(lazy); err != nil {
				t.Fatal(err)
			}
			if a, b := vm.Fingerprint(dce.Main()), vm.Fingerprint(lazy.Main()); a != b {
				t.Errorf("%s (mode %d): fingerprint %#x after LazyRescale and DCE, %#x after DCE alone", tc.name, mode, b, a)
			}
		}
	}
}
