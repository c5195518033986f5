package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/costmodel"
	"antace/internal/ir"
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

// compileAutoPerPlan is the plan search CompileAuto replaced, kept as the
// reference: a whole Compile per candidate plan, front end included.
func compileAutoPerPlan(model *onnx.Model, cfg Config, cal costmodel.Calibration) (*Compiled, *PlanReport, error) {
	report := &PlanReport{CalibrationSrc: cal.Source}
	var best *Compiled
	chosen := -1
	type schedule struct {
		fingerprint uint64
		bootstraps  int
	}
	rowOf := map[schedule]int{}
	for i, p := range EnumeratePlans(cfg.CKKS.Mode) {
		pcfg := cfg
		pcfg.CKKS.Mode = p.Boot
		pc := PlanCost{Plan: p.Name(), Default: i == 0}
		c, err := Compile(model, pcfg)
		if err != nil {
			pc.Err = err.Error()
			report.Candidates = append(report.Candidates, pc)
			continue
		}
		sched := schedule{ir.Fingerprint(c.CKKS.Module.Main()), c.CKKS.Bootstraps}
		if row, seen := rowOf[sched]; seen {
			report.Candidates[row].Plan += "=" + pc.Plan
			continue
		}
		rowOf[sched] = len(report.Candidates)
		m := &costmodel.Model{Cal: cal, Geometry: c.CKKS.Literal.Geometry()}
		pc.PredictedSec = m.InferenceCost(c.CKKS).Total()
		pc.LogN = c.CKKS.Literal.LogN
		pc.Levels = len(c.CKKS.Literal.LogQ)
		pc.Bootstraps = c.CKKS.Bootstraps
		pc.Rotations = vecir.Analyze(c.Vec.Module.Main()).Rotations
		report.Candidates = append(report.Candidates, pc)
		if best == nil || pc.PredictedSec < report.Candidates[chosen].PredictedSec {
			best, chosen = c, len(report.Candidates)-1
		}
	}
	if best == nil {
		return nil, report, fmt.Errorf("core: no candidate plan compiled")
	}
	report.Candidates[chosen].Chosen = true
	report.ChosenPlan = report.Candidates[chosen].Plan
	report.DefaultPlan = report.Candidates[0].Plan
	if def := report.Candidates[0]; def.Err == "" && report.Candidates[chosen].PredictedSec > 0 {
		report.PredictedSpeedup = def.PredictedSec / report.Candidates[chosen].PredictedSec
	}
	sort.SliceStable(report.Candidates, func(i, j int) bool {
		a, b := report.Candidates[i], report.Candidates[j]
		if (a.Err == "") != (b.Err == "") {
			return a.Err == ""
		}
		return a.PredictedSec < b.PredictedSec
	})
	return best, report, nil
}

// TestCompileAutoSharesFrontEnd runs the plan search with one front end
// and with a whole compile per plan, under every default bootstrap
// policy: the reports must be equal (rows, names, predicted seconds,
// chosen plan) and the chosen programs equal in bytes. Between the two,
// every plan's back end reads the shared SIHE module, so a back end that
// changed it would show here.
func TestCompileAutoSharesFrontEnd(t *testing.T) {
	resnet, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, BaseChannels: 4, InputSize: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	small, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*onnx.Model{resnet, small} {
		for _, mode := range []ckksir.BootstrapMode{ckksir.BootstrapAuto, ckksir.BootstrapAlways, ckksir.BootstrapNever} {
			cfg := Config{
				SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
				CKKS: ckksir.Options{Mode: mode, IgnoreSecurity: true, LogScale: 40},
			}
			name := fmt.Sprintf("%s default %s", m.Graph.Name, Plan{Boot: mode}.Name())
			got, gotRep, err := CompileAuto(m, cfg, costmodel.DefaultCalibration())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, wantRep, err := compileAutoPerPlan(m, cfg, costmodel.DefaultCalibration())
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("%s: report\n%+v\nwant\n%+v", name, gotRep, wantRep)
			}
			gb, err := got.CKKS.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.CKKS.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s: chosen program differs from the per-plan search's", name)
			}
		}
	}
}
