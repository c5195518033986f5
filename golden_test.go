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
		0xb2f6ff640a9e4a9f, 126, 1431, 1552,
		[]float64{4, 8, 8, 8, 8, 8, 8, 16, 8, 8, 16, 16, 16, 32, 32, 16, 32, 16, 32},
		30, "afe0ab215bd4a5fc344dc1c4eb3a0a14c5209319a1e62b8af3155431445bda8f",
		"c1fa6f17b83ae2083aa6b23b045f3f6b01c13428511c47377d085c83a35db973"}
	for _, tc := range []struct {
		name string
		cfg  onnx.ResNetConfig
		prof core.Config
		auto bool
		want golden
	}{
		{"paper_resnet20", onnx.ResNetConfig{Depth: 20}, paper, false, golden{
			0xcf9973966698fbf7, 144, 8307, 8428,
			[]float64{8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16, 16, 32, 32, 32, 64, 64, 64, 64},
			117, "914f43a178511b50e28d6239841555cd7affb84de3aca3dadc25117dcbff1a90", ""}},
		{"resnet8", reduced(8), TestProfile(), false, golden{
			0xbce00e14909f693a, 60, 513, 556,
			[]float64{4, 8, 8, 8, 8, 8, 16},
			30, "afe0ab215bd4a5fc344dc1c4eb3a0a14c5209319a1e62b8af3155431445bda8f",
			"8c81f0582ced849bbc6af7313300692e02c2054b01b93c37dbece15cbf29810b"}},
		{"resnet14", reduced(14), TestProfile(), false, golden{
			0xd00279e412d0846d, 93, 972, 1054,
			[]float64{4, 8, 8, 8, 8, 8, 8, 4, 8, 8, 8, 8, 8},
			30, "afe0ab215bd4a5fc344dc1c4eb3a0a14c5209319a1e62b8af3155431445bda8f",
			"e1451781ca7f40867eefc2e1c24cf37421d7bb4f3ce267c5883072158c7311c8"}},
		{"resnet20", reduced(20), TestProfile(), false, resnet20},
		{"resnet32", reduced(32), TestProfile(), false, golden{
			0x99c3d1072bc3343f, 192, 2349, 2548,
			[]float64{4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 16, 16, 16, 32, 32, 64, 64, 64, 128, 64, 128, 128, 128, 64, 128, 64, 128, 128, 256, 128, 256},
			30, "afe0ab215bd4a5fc344dc1c4eb3a0a14c5209319a1e62b8af3155431445bda8f",
			"bf3cf44144080c75966e1dacb93f303880b730c695a4715b9edbb322701b5939"}},
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
