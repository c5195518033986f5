package ace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/vm"
)

// golden is what one compile of a zoo model must reproduce exactly.
type golden struct {
	fingerprint     uint64    // vm.Fingerprint of the CKKS main function
	vec, sihe, ckks int       // instruction counts per level
	bounds          []float64 // calibrated activation bounds, in body order
	keys            int       // ckksir.RotationKeys, count
	keysSHA         string    // and SHA-256 of their (K, Level) pairs
	artifactSHA     string    // SHA-256 of MarshalBinary; "" under AnalysisOnly
}

func goldenOf(t *testing.T, p *core.Compiled, analysisOnly bool) golden {
	t.Helper()
	g := golden{
		fingerprint: vm.Fingerprint(p.CKKS.Module.Main()),
		vec:         len(p.Vec.Module.Main().Body),
		sihe:        len(p.SIHE.Main().Body),
		ckks:        len(p.CKKS.Module.Main().Body),
	}
	for _, in := range p.NN.Main().Body {
		if in.Op == nnir.OpRelu || in.Op == nnir.OpSigmoid || in.Op == nnir.OpTanh {
			g.bounds = append(g.bounds, in.Attrs["bound"].(float64))
		}
	}
	h := sha256.New()
	for _, k := range ckksir.RotationKeys(p.CKKS.Module.Main()) {
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(k.K)), uint64(k.Level)))
		g.keys++
	}
	g.keysSHA = fmt.Sprintf("%x", h.Sum(nil))
	if !analysisOnly {
		raw, err := p.CKKS.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		g.artifactSHA = fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	return g
}

// TestCompileGolden compiles the benchmark's compile zoo — paper-scale
// ResNet-20 under AnalysisOnly, four reduced ResNets under TestProfile
// and one plan search — from ONNX bytes, as the benchmark does, and holds
// each to constants recorded from the compiler before its compile-time
// optimisations: CKKS fingerprint, per-level instruction counts,
// calibrated bounds, rotation keys and, where masks are built, the
// artifact's bytes. Compile-time work must not change what is emitted.
func TestCompileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles at paper scale")
	}
	paper := PaperProfile()
	paper.Vec.AnalysisOnly = true
	reduced := func(depth int) onnx.ResNetConfig {
		return onnx.ResNetConfig{Depth: depth, InputSize: 8, BaseChannels: 4}
	}
	// The plan search commits to the same program as the default plan.
	resnet20 := golden{
		0x6b8b3bba4e807b9, 126, 1431, 1550,
		[]float64{4, 8, 8, 8, 8, 8, 8, 16, 8, 8, 16, 16, 16, 32, 32, 16, 32, 16, 32},
		30, "ba8397607f25b0c0c2f4eaf9c8379a40b77e6d222965b7bfce28b7b2b3a3c48d",
		"7acb673530cafa2f66336fdb6e06f99745e6494c0b555db20dc34ce7404a259a"}
	for _, tc := range []struct {
		name string
		cfg  onnx.ResNetConfig
		prof core.Config
		auto bool
		want golden
	}{
		{"paper_resnet20", onnx.ResNetConfig{Depth: 20}, paper, false, golden{
			0xf3bcf619cb7699f6, 144, 8307, 8426,
			[]float64{8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16, 16, 32, 32, 32, 64, 64, 64, 64},
			117, "03f3117345a5534f35db32eb24e73ed12fcdbf7c5ff039e8286701ef298e3ef0", ""}},
		{"resnet8", reduced(8), TestProfile(), false, golden{
			0xd8291b61b61e0546, 60, 513, 554,
			[]float64{4, 8, 8, 8, 8, 8, 16},
			30, "ba8397607f25b0c0c2f4eaf9c8379a40b77e6d222965b7bfce28b7b2b3a3c48d",
			"b06a8bc96a82389da82b0cc69cba1d7234b650f793c03e9332e6418ccdf55c5d"}},
		{"resnet14", reduced(14), TestProfile(), false, golden{
			0x14a49363e6897f0e, 93, 972, 1052,
			[]float64{4, 8, 8, 8, 8, 8, 8, 4, 8, 8, 8, 8, 8},
			30, "ba8397607f25b0c0c2f4eaf9c8379a40b77e6d222965b7bfce28b7b2b3a3c48d",
			"87cb672de78498add34f442adfd1d4219c517b6b6b7dc2113e3a98150f6c7649"}},
		{"resnet20", reduced(20), TestProfile(), false, resnet20},
		{"resnet32", reduced(32), TestProfile(), false, golden{
			0x577e25a5e7787ca5, 192, 2349, 2546,
			[]float64{4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 16, 16, 16, 32, 32, 64, 64, 64, 128, 64, 128, 128, 128, 64, 128, 64, 128, 128, 256, 128, 256},
			30, "ba8397607f25b0c0c2f4eaf9c8379a40b77e6d222965b7bfce28b7b2b3a3c48d",
			"b6307fecbf7a1124f04061aaf4bfc6b191b8d03691c0879348e6b3ebedc88077"}},
		{"auto_resnet20", reduced(20), TestProfile(), true, resnet20},
	} {
		m, err := onnx.BuildResNet(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = onnx.Unmarshal(onnx.Marshal(m)); err != nil {
			t.Fatal(err)
		}
		var p *core.Compiled
		if tc.auto {
			var rep *core.PlanReport
			if p, rep, err = core.CompileAuto(m, tc.prof, costmodel.DefaultCalibration()); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if rep.ChosenPlan != "boot-auto=boot-always" || len(rep.Candidates) != 2 {
				t.Errorf("%s: chose %q among %d candidates, want \"boot-auto=boot-always\" among 2", tc.name, rep.ChosenPlan, len(rep.Candidates))
			}
		} else if p, err = core.Compile(m, tc.prof); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := goldenOf(t, p, tc.prof.Vec.AnalysisOnly); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: compiled to\n%#v\nwant\n%#v", tc.name, got, tc.want)
		}
	}
}
