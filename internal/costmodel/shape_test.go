// Shape tests that need whole compiled programs live in the external
// test package: core imports costmodel for the plan search, so the
// in-package tests cannot import core back.
package costmodel_test

import (
	"testing"

	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/kswork"
	"antace/internal/onnx"
	"antace/internal/sihe"
)

func compileFor(t *testing.T, expert bool) *core.Compiled {
	t.Helper()
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(m, core.Config{
		SIHE:   sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS:   ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true},
		Expert: expert,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInferenceCostShape(t *testing.T) {
	ace := compileFor(t, false)
	expert := compileFor(t, true)
	model := &costmodel.Model{Cal: costmodel.DefaultCalibration(), Geometry: kswork.Geometry{LogN: 16, K: 2}}

	bAce := model.InferenceCost(ace.CKKS)
	bExp := model.InferenceCost(expert.CKKS)
	if bAce.Total() <= 0 {
		t.Fatal("zero cost")
	}
	// The paper's headline: ACE beats Expert overall and on every
	// component it optimises.
	if bAce.Total() >= bExp.Total() {
		t.Fatalf("ACE (%.2fs) not faster than Expert (%.2fs)", bAce.Total(), bExp.Total())
	}
	if bAce.Bootstrap >= bExp.Bootstrap {
		t.Fatalf("ACE bootstrap (%.2fs) not faster than Expert (%.2fs)", bAce.Bootstrap, bExp.Bootstrap)
	}
	if bAce.Conv >= bExp.Conv {
		t.Fatalf("ACE conv (%.2fs) not faster than Expert (%.2fs)", bAce.Conv, bExp.Conv)
	}
}

// TestEncodeIsSetupNotInference: weights are encoded once per model, so
// the model prices ckks.encode as a one-time line and keeps it out of
// the per-inference total that CompileAuto ranks plans on.
func TestEncodeIsSetupNotInference(t *testing.T) {
	c := compileFor(t, false)
	if c.CKKS.Module.Main().InstrCount(ckksir.OpEncode) == 0 {
		t.Fatal("program has no encode instruction")
	}
	model := &costmodel.Model{Cal: costmodel.DefaultCalibration(), Geometry: kswork.Geometry{LogN: 16, K: 2}}
	b := model.InferenceCost(c.CKKS)
	if b.Setup <= 0 {
		t.Fatalf("breakdown %+v prices no one-time encoding", b)
	}
	if got, want := b.Total(), b.Conv+b.Bootstrap+b.ReLU+b.Other; got != want {
		t.Fatalf("per-inference total %g includes more than the four categories (%g)", got, want)
	}
}

func TestMemoryCostShape(t *testing.T) {
	ace := compileFor(t, false)
	expert := compileFor(t, true)
	model := &costmodel.Model{Cal: costmodel.DefaultCalibration(), Geometry: kswork.Geometry{LogN: 16, K: 2}}

	// ACE truncates keys to their used level; the baseline generates
	// full-chain keys.
	mAce := model.MemoryCost(ace.CKKS, 30, true)
	mExp := model.MemoryCost(expert.CKKS, 30, false)
	if mAce.Total() >= mExp.Total() {
		t.Fatalf("ACE memory %g not below Expert %g", mAce.Total(), mExp.Total())
	}
	if share := mAce.KeyShare(); share <= 0 || share >= 1 {
		t.Fatalf("key share %g out of (0,1)", share)
	}
}
