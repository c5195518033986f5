package core

import (
	"fmt"
	"sort"

	"antace/internal/ckksir"
	"antace/internal/costmodel"
	"antace/internal/ir"
	"antace/internal/onnx"
	"antace/internal/vecir"
)

// Plan is one point in the compilation search space the plan search
// enumerates: a bootstrap placement policy, the knob the paper leaves to
// the expert. Everything else (the baby/giant split of every linear
// layer, levels, scales, keys) the compiler already derives.
type Plan struct {
	Boot ckksir.BootstrapMode `json:"-"`
}

// Name is the plan's stable identifier in reports and benchmarks.
func (p Plan) Name() string {
	switch p.Boot {
	case ckksir.BootstrapNever:
		return "boot-never"
	case ckksir.BootstrapAlways:
		return "boot-always"
	}
	return "boot-auto"
}

// EnumeratePlans lists the candidate plans, one per bootstrap policy.
// The default plan — the caller's bootstrap mode — is always first, so
// reports can show chosen-vs-default at a glance.
func EnumeratePlans(defaultBoot ckksir.BootstrapMode) []Plan {
	plans := []Plan{{Boot: defaultBoot}}
	for _, bm := range []ckksir.BootstrapMode{ckksir.BootstrapAlways, ckksir.BootstrapAuto, ckksir.BootstrapNever} {
		if bm != defaultBoot {
			plans = append(plans, Plan{Boot: bm})
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

// CompileAuto runs the plan search: it runs the front end (NN, VECTOR
// and SIHE IR, which no plan changes) once, lowers it to CKKS under
// every candidate plan, prices each distinct schedule under the
// calibrated cost model, and commits to the cheapest. cfg supplies
// every non-searched option; cfg.CKKS.Mode gives the default plan the
// search is measured against.
// Plans that compile to the same schedule (boot-auto is always one of
// the other two) are priced once and share one row, named after all of
// them. Same schedule means equal ir.Fingerprint and equal bootstrap
// count: the fingerprint does not hash attributes, and on this axis the
// bootstrap count is what every level, scale and chain prime follows
// from.
// Candidates that fail to compile (e.g. BootstrapNever overflowing the
// modulus chain at full scale) are recorded and skipped rather than
// aborting the search.
func CompileAuto(model *onnx.Model, cfg Config, cal costmodel.Calibration) (*Compiled, *PlanReport, error) {
	report := &PlanReport{CalibrationSrc: cal.Source}
	cfg = cfg.withDefaults()
	fe, err := frontEnd(model, cfg)
	if err != nil {
		return nil, report, err
	}
	var best *Compiled
	chosen := -1
	type schedule struct {
		fingerprint uint64
		bootstraps  int
	}
	rowOf := map[schedule]int{} // index in report.Candidates
	for i, p := range EnumeratePlans(cfg.CKKS.Mode) {
		opts := cfg.CKKS
		opts.Mode = p.Boot
		pc := PlanCost{Plan: p.Name(), Default: i == 0}
		c, err := fe.backEnd(opts)
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
	// The default plan is enumerated first, so it heads its row.
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
