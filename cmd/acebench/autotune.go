package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/experiments"
	"antace/internal/obs"
	"antace/internal/ring"
	"antace/internal/vecir"
	"antace/internal/vm"
)

// categoryRow is one Figure-6 category's measured-vs-predicted line in
// the autotune report.
type categoryRow struct {
	Category     string  `json:"category"`
	MeasuredSec  float64 `json:"measured_sec"`
	PredDefault  float64 `json:"predicted_default_sec"`
	PredLive     float64 `json:"predicted_live_sec"`
	RatioDefault float64 `json:"ratio_default"`
	RatioLive    float64 `json:"ratio_live"`
}

// autotuneReport is the BENCH_autotune.json schema: the plan search
// outcome, the hand-picked baseline (naive conv lowering, not a point of
// the search) as predicted and measured, the measured wall-clock of the
// chosen plan, and the per-category model agreement on the baseline's
// run.
type autotuneReport struct {
	Model       string                `json:"model"`
	Calibration costmodel.Calibration `json:"calibration"`
	Plans       *core.PlanReport      `json:"plan_search"`

	Baseline             string  `json:"baseline"`
	BaselineRotations    int     `json:"baseline_rotations"`
	BaselinePredictedSec float64 `json:"baseline_predicted_sec"`
	BaselineMeasuredSec  float64 `json:"baseline_measured_sec"`
	ChosenMeasuredSec    float64 `json:"chosen_measured_sec"`
	MeasuredSpeedup      float64 `json:"measured_speedup"`

	Categories []categoryRow         `json:"categories"`
	LiveCal    costmodel.Calibration `json:"live_calibration"`
	Within2x   bool                  `json:"per_category_within_2x"`
}

// measurePlan runs one warmup and one measured encrypted inference of a
// compiled plan and returns the measured wall-clock plus its profile
// aggregate (runs = 1). The warmup matters for the same reason it does
// in Calibrate: the first run builds NTT twiddle tables and faults in
// every pooled polynomial, which would otherwise be charged to the
// measured ops.
func measurePlan(c *core.Compiled) (float64, obs.ProfileSnapshot, error) {
	machine, client, err := vm.New(c.CKKS, c.VectorLen(), ring.SeedFromInt(42))
	if err != nil {
		return 0, obs.ProfileSnapshot{}, err
	}
	input := make([]float64, c.VectorLen())
	for i := range input {
		input[i] = float64(i%7)/7 - 0.5
	}
	ct, err := client.Encrypt(input)
	if err != nil {
		return 0, obs.ProfileSnapshot{}, err
	}
	if _, err := machine.Run(c.CKKS.Module, ct); err != nil {
		return 0, obs.ProfileSnapshot{}, err
	}
	machine.Prof = obs.NewRunProfile()
	start := time.Now()
	out, err := machine.Run(c.CKKS.Module, ct)
	if err != nil {
		return 0, obs.ProfileSnapshot{}, err
	}
	wall := time.Since(start)
	_ = client.Decrypt(out)
	agg := obs.NewAggregate()
	agg.Merge(machine.Prof, wall)
	return wall.Seconds(), agg.Snapshot(), nil
}

// runAutotune is the calibrate → enumerate → measure loop behind `make
// autotune`: microbenchmark-calibrate the cost model, search the plan
// space for the reduced ResNet-20, then run the hand-picked baseline and
// the chosen plan for real and report predicted vs measured — the
// experiment EXPERIMENTS.md's "Autotuned layout search" table records.
func runAutotune(w io.Writer, outPath string, cal costmodel.Calibration) error {
	spec := experiments.ModelSpec{Name: "ResNet-20", Depth: 20, Classes: 10}
	m, err := experiments.BuildModel(spec, experiments.ScaleReduced)
	if err != nil {
		return err
	}
	cfg := experiments.ReducedConfig()
	// The hand-picked baseline the search must beat is the naive conv
	// schedule under the caller's bootstrap policy — one rotation per
	// diagonal, the structure an expert writes by hand before any
	// baby/giant splitting. The compiler's derived split shares
	// rotations across diagonals and should win on any machine where
	// rotations dominate conv time.
	naive := cfg
	naive.Vec.Conv = vecir.ConvNaive
	baseline := "naive-conv/" + core.Plan{Boot: cfg.CKKS.Mode}.Name()

	fmt.Fprintf(w, "plan search over %s (reduced scale), calibration source %q\n\n", spec.Name, cal.Source)
	chosen, report, err := core.CompileAuto(m, cfg, cal)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %12s %6s %7s %11s %10s\n", "plan", "predicted_s", "logN", "levels", "bootstraps", "rotations")
	for _, pc := range report.Candidates {
		marker := " "
		switch {
		case pc.Chosen:
			marker = "*"
		case pc.Default:
			marker = "d"
		}
		if pc.Err != "" {
			fmt.Fprintf(w, "%s %-26s %12s (skipped: %s)\n", marker, pc.Plan, "-", pc.Err)
			continue
		}
		fmt.Fprintf(w, "%s %-26s %12.3f %6d %7d %11d %10d\n",
			marker, pc.Plan, pc.PredictedSec, pc.LogN, pc.Levels, pc.Bootstraps, pc.Rotations)
	}
	fmt.Fprintf(w, "\nchosen %s over default %s: predicted speedup %.2fx\n",
		report.ChosenPlan, report.DefaultPlan, report.PredictedSpeedup)

	// Measure the baseline with the profiler attached: its run exercises
	// every category (it bootstraps), so it is the run the per-category
	// model agreement is judged on.
	def, err := core.Compile(m, naive)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmeasuring baseline %s ...\n", baseline)
	defWall, defSnap, err := measurePlan(def)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measuring chosen plan %s ...\n", report.ChosenPlan)
	chosenWall, _, err := measurePlan(chosen)
	if err != nil {
		return err
	}

	geom := def.CKKS.Literal.Geometry()
	meas, err := costmodel.MeasuredBreakdown(defSnap)
	if err != nil {
		return err
	}
	live, _, err := costmodel.FromProfile(defSnap, def.CKKS.Module.Main(), geom, cal)
	if err != nil {
		return err
	}
	live = costmodel.FitSchedule(live, geom, def.CKKS, defSnap)
	predDef := (&costmodel.Model{Cal: cal, Geometry: geom}).InferenceCost(def.CKKS)
	predLive := (&costmodel.Model{Cal: live, Geometry: geom}).InferenceCost(def.CKKS)

	rep := autotuneReport{
		Model:                spec.Name + "-reduced",
		Calibration:          cal,
		Plans:                report,
		Baseline:             baseline,
		BaselineRotations:    vecir.Analyze(def.Vec.Module.Main()).Rotations,
		BaselinePredictedSec: predDef.Total(),
		BaselineMeasuredSec:  defWall,
		ChosenMeasuredSec:    chosenWall,
		LiveCal:              live,
		Within2x:             true,
	}
	if chosenWall > 0 {
		rep.MeasuredSpeedup = defWall / chosenWall
	}

	fmt.Fprintf(w, "\nbaseline %s (%d rotations): predicted %.3fs measured %.2fs   chosen %s: measured %.2fs   speedup %.2fx\n",
		baseline, rep.BaselineRotations, rep.BaselinePredictedSec, defWall, report.ChosenPlan, chosenWall, rep.MeasuredSpeedup)

	fmt.Fprintf(w, "\nper-category agreement on the baseline's run (measured vs model, s/run):\n")
	fmt.Fprintf(w, "%-10s %10s %12s %12s %9s %9s\n", "category", "measured", "pred(def)", "pred(live)", "ratio(d)", "ratio(l)")
	ratio := func(pred, meas float64) float64 {
		if meas <= 0 {
			return 0
		}
		return pred / meas
	}
	for _, cat := range []struct {
		name      string
		m, pd, pl float64
	}{
		{"Conv", meas.Conv, predDef.Conv, predLive.Conv},
		{"Bootstrap", meas.Bootstrap, predDef.Bootstrap, predLive.Bootstrap},
		{"ReLU", meas.ReLU, predDef.ReLU, predLive.ReLU},
	} {
		row := categoryRow{
			Category: cat.name, MeasuredSec: cat.m,
			PredDefault: cat.pd, PredLive: cat.pl,
			RatioDefault: ratio(cat.pd, cat.m), RatioLive: ratio(cat.pl, cat.m),
		}
		rep.Categories = append(rep.Categories, row)
		for _, r := range []float64{row.RatioDefault, row.RatioLive} {
			if r < 0.5 || r > 2 {
				rep.Within2x = false
			}
		}
		fmt.Fprintf(w, "%-10s %10.3f %12.3f %12.3f %8.2fx %8.2fx\n",
			cat.name, cat.m, cat.pd, cat.pl, row.RatioDefault, row.RatioLive)
	}
	fmt.Fprintf(w, "\nper-category within 2x: %v\n", rep.Within2x)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "report written to %s\n", outPath)
	if rep.MeasuredSpeedup < 1 {
		return fmt.Errorf("autotuned plan %s (%.2fs) did not beat the baseline %s (%.2fs)",
			report.ChosenPlan, chosenWall, baseline, defWall)
	}
	if !rep.Within2x {
		return fmt.Errorf("model predictions strayed past 2x of measurements")
	}
	return nil
}
