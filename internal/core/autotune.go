package core

import (
	"fmt"
	"sort"

	"antace/internal/ckksir"
	"antace/internal/costmodel"
	"antace/internal/onnx"
	"antace/internal/vecir"
)

// Plan is one point in the compilation search space the auto-layout
// search enumerates: a BSGS convolution split crossed with a bootstrap
// placement policy. The per-plan knobs are the ones the paper leaves to
// the expert; everything else (levels, scales, keys) the compiler
// already derives.
type Plan struct {
	Conv vecir.ConvMode       `json:"-"`
	Boot ckksir.BootstrapMode `json:"-"`
}

func bootModeName(m ckksir.BootstrapMode) string {
	switch m {
	case ckksir.BootstrapNever:
		return "boot-never"
	case ckksir.BootstrapAlways:
		return "boot-always"
	}
	return "boot-auto"
}

// Name is the plan's stable identifier in reports and benchmarks.
func (p Plan) Name() string { return p.Conv.String() + "/" + bootModeName(p.Boot) }

// EnumeratePlans lists the candidate plans: every convolution split
// crossed with every bootstrap policy. The default (hand-picked) plan —
// channel-giant babies with the caller's bootstrap mode — is always
// first, so reports can show chosen-vs-default at a glance.
func EnumeratePlans(defaultBoot ckksir.BootstrapMode) []Plan {
	plans := []Plan{{Conv: vecir.ConvChannelGiant, Boot: defaultBoot}}
	for _, bm := range []ckksir.BootstrapMode{ckksir.BootstrapAlways, ckksir.BootstrapAuto, ckksir.BootstrapNever} {
		for _, cm := range vecir.ConvModes() {
			p := Plan{Conv: cm, Boot: bm}
			if p == plans[0] {
				continue
			}
			plans = append(plans, p)
		}
	}
	return plans
}

// PlanCost is one candidate's evaluation under the calibrated model.
type PlanCost struct {
	Plan         string  `json:"plan"`
	PredictedSec float64 `json:"predicted_sec"`
	LogN         int     `json:"log_n"`
	Levels       int     `json:"levels"`
	Bootstraps   int     `json:"bootstraps"`
	Rotations    int     `json:"rotations"`
	Chosen       bool    `json:"chosen"`
	Default      bool    `json:"default"`
	// Err records why a candidate could not be compiled (and was skipped).
	Err string `json:"error,omitempty"`
}

// PlanReport is the outcome of an auto-layout search.
type PlanReport struct {
	Candidates []PlanCost `json:"candidates"`
	// ChosenPlan / DefaultPlan name the winner and the hand-picked
	// baseline; PredictedSpeedup = default predicted / chosen predicted.
	ChosenPlan       string  `json:"chosen_plan"`
	DefaultPlan      string  `json:"default_plan"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	CalibrationSrc   string  `json:"calibration_source"`
}

// CompileAuto runs the plan search: it compiles every candidate plan,
// prices each schedule under the calibrated cost model, and commits to
// the cheapest. cfg supplies every non-searched option; cfg.Vec.Conv and
// cfg.CKKS.Mode give the default plan the search is measured against.
// Candidates that fail to compile (e.g. BootstrapNever overflowing the
// modulus chain at full scale) are recorded and skipped rather than
// aborting the search.
func CompileAuto(model *onnx.Model, cfg Config, cal costmodel.Calibration) (*Compiled, *PlanReport, error) {
	defaultPlan := Plan{Conv: cfg.Vec.Conv, Boot: cfg.CKKS.Mode}
	report := &PlanReport{DefaultPlan: defaultPlan.Name(), CalibrationSrc: cal.Source}

	type candidate struct {
		plan Plan
		c    *Compiled
		cost float64
	}
	var best *candidate
	for _, p := range EnumeratePlans(cfg.CKKS.Mode) {
		pcfg := cfg
		pcfg.Vec.Conv = p.Conv
		pcfg.CKKS.Mode = p.Boot
		pc := PlanCost{Plan: p.Name(), Default: p == defaultPlan}
		c, err := Compile(model, pcfg)
		if err != nil {
			pc.Err = err.Error()
			report.Candidates = append(report.Candidates, pc)
			continue
		}
		m := costmodel.GeometryOf(c.CKKS).Model(cal)
		pc.PredictedSec = m.InferenceCost(c.CKKS).Total()
		pc.LogN = c.CKKS.Literal.LogN
		pc.Levels = len(c.CKKS.Literal.LogQ)
		pc.Bootstraps = c.CKKS.Bootstraps
		pc.Rotations = vecir.Analyze(c.Vec.Module.Main()).Rotations
		report.Candidates = append(report.Candidates, pc)
		if best == nil || pc.PredictedSec < best.cost {
			best = &candidate{plan: p, c: c, cost: pc.PredictedSec}
		}
	}
	if best == nil {
		return nil, report, fmt.Errorf("core: no candidate plan compiled")
	}
	report.ChosenPlan = best.plan.Name()
	for i := range report.Candidates {
		pc := &report.Candidates[i]
		pc.Chosen = pc.Plan == report.ChosenPlan && pc.Err == ""
		if pc.Default && pc.Err == "" && best.cost > 0 {
			report.PredictedSpeedup = pc.PredictedSec / best.cost
		}
	}
	sort.SliceStable(report.Candidates, func(i, j int) bool {
		a, b := report.Candidates[i], report.Candidates[j]
		if (a.Err == "") != (b.Err == "") {
			return a.Err == ""
		}
		return a.PredictedSec < b.PredictedSec
	})
	return best.c, report, nil
}
