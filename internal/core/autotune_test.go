package core

import (
	"testing"

	"antace/internal/ckksir"
	"antace/internal/costmodel"
	"antace/internal/onnx"
	"antace/internal/sihe"
)

func TestCompileAuto(t *testing.T) {
	m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true},
	}
	chosen, report, err := CompileAuto(m, cfg, costmodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if chosen == nil || chosen.CKKS == nil {
		t.Fatal("no compiled program returned")
	}
	// Three bootstrap policies, two schedules: this model is deep enough
	// that boot-auto bootstraps, so it is boot-always and shares its row.
	if len(report.Candidates) != 2 || report.DefaultPlan != "boot-always=boot-auto" {
		t.Fatalf("%d rows, default plan %q; want 2 rows and boot-always=boot-auto", len(report.Candidates), report.DefaultPlan)
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

// TestCompileAutoDefaultPlan: the caller's bootstrap mode names the
// default plan the search is measured against, and a policy that
// compiles to the default's schedule joins its row.
func TestCompileAutoDefaultPlan(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true, MaxNoBootstrapDepth: 1 << 10},
	}
	_, report, err := CompileAuto(m, cfg, costmodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if report.DefaultPlan != "boot-never=boot-auto" {
		t.Fatalf("default plan %q, want boot-never=boot-auto", report.DefaultPlan)
	}
	var rows []string
	for _, pc := range report.Candidates {
		rows = append(rows, pc.Plan)
		if pc.Default != (pc.Plan == report.DefaultPlan) {
			t.Errorf("row %s: default flag %v", pc.Plan, pc.Default)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("rows %v, want the default's and boot-always", rows)
	}
}
