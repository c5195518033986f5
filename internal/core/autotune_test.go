package core

import (
	"testing"

	"antace/internal/ckksir"
	"antace/internal/costmodel"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/vecir"
)

func TestCompileAuto(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SIHE:     sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS:     ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true},
		SkipPoly: true,
	}
	chosen, report, err := CompileAuto(m, cfg, costmodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if chosen == nil || chosen.CKKS == nil {
		t.Fatal("no compiled program returned")
	}
	if len(report.Candidates) < 4 {
		t.Fatalf("only %d candidates enumerated", len(report.Candidates))
	}
	var sawChosen, sawDefault bool
	var chosenCost, defaultCost float64
	for _, pc := range report.Candidates {
		if pc.Err != "" {
			continue
		}
		if pc.PredictedSec <= 0 {
			t.Errorf("plan %s: non-positive predicted cost %g", pc.Plan, pc.PredictedSec)
		}
		if pc.Chosen {
			sawChosen, chosenCost = true, pc.PredictedSec
		}
		if pc.Default {
			sawDefault, defaultCost = true, pc.PredictedSec
		}
	}
	if !sawChosen || !sawDefault {
		t.Fatalf("report missing chosen (%v) or default (%v) plan", sawChosen, sawDefault)
	}
	// The search must commit to the global minimum: no surviving
	// candidate may be cheaper than the chosen plan.
	for _, pc := range report.Candidates {
		if pc.Err == "" && pc.PredictedSec < chosenCost {
			t.Fatalf("plan %s (%.3fs) cheaper than chosen %s (%.3fs)",
				pc.Plan, pc.PredictedSec, report.ChosenPlan, chosenCost)
		}
	}
	if chosenCost > defaultCost {
		t.Fatalf("chosen plan (%.3fs) worse than default (%.3fs)", chosenCost, defaultCost)
	}
	if report.PredictedSpeedup < 1 {
		t.Fatalf("predicted speedup %.3f below 1", report.PredictedSpeedup)
	}
	// Candidates are reported cheapest-first with failures at the end.
	for i := 1; i < len(report.Candidates); i++ {
		a, b := report.Candidates[i-1], report.Candidates[i]
		if a.Err == "" && b.Err == "" && a.PredictedSec > b.PredictedSec {
			t.Fatalf("candidates not sorted: %s (%.3f) before %s (%.3f)",
				a.Plan, a.PredictedSec, b.Plan, b.PredictedSec)
		}
		if a.Err != "" && b.Err == "" {
			t.Fatal("failed candidate sorted before a successful one")
		}
	}
}

// TestCompileAutoNaiveDefaultPlan: the caller's Conv choice names the
// default plan the search is measured against.
func TestCompileAutoNaiveDefaultPlan(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SIHE:     sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS:     ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true},
		SkipPoly: true,
	}
	cfg.Vec.Conv = vecir.ConvNaive
	_, report, err := CompileAuto(m, cfg, costmodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if report.DefaultPlan != "naive/boot-always" {
		t.Fatalf("default plan %q, want naive/boot-always", report.DefaultPlan)
	}
}
