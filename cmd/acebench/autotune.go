package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"antace/internal/ckks"
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

// measureRuns is how many measured inferences of each plan
// measurePlans takes the median of: the default plan beats ConvNaive by
// a few per cent, less than one inference spreads by.
const measureRuns = 7

// planRun is one compiled plan ready to run: its machine, and an
// encrypted input it has already run once. The warmup matters for the
// same reason it does in Calibrate: the first run builds NTT twiddle
// tables and faults in every pooled polynomial, which would otherwise be
// charged to the measured ops.
type planRun struct {
	c       *core.Compiled
	machine *vm.Machine
	client  *vm.Client
	ct      *ckks.Ciphertext
	agg     *obs.Aggregate
	walls   []float64
}

func newPlanRun(c *core.Compiled) (*planRun, error) {
	machine, client, err := vm.New(c.CKKS, c.VectorLen(), ring.SeedFromInt(42))
	if err != nil {
		return nil, err
	}
	input := make([]float64, c.VectorLen())
	for i := range input {
		input[i] = float64(i%7)/7 - 0.5
	}
	ct, err := client.Encrypt(input)
	if err != nil {
		return nil, err
	}
	if _, err := machine.Run(c.CKKS.Module, ct); err != nil {
		return nil, err
	}
	return &planRun{c: c, machine: machine, client: client, ct: ct, agg: obs.NewAggregate()}, nil
}

// run times one profiled inference, starting from a collected heap so
// that no run pays for the garbage of the one before it, which belongs
// to the other plan every other time.
func (r *planRun) run() error {
	r.machine.Prof = obs.NewRunProfile()
	runtime.GC()
	start := time.Now()
	out, err := r.machine.Run(r.c.CKKS.Module, r.ct)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	_ = r.client.Decrypt(out)
	r.agg.Merge(r.machine.Prof, wall)
	r.walls = append(r.walls, wall.Seconds())
	return nil
}

func (r *planRun) median() float64 {
	sort.Float64s(r.walls)
	return r.walls[len(r.walls)/2]
}

// measurePlans runs measureRuns inferences of each plan, alternating
// between them and which goes first, so that a machine whose speed
// drifts while it measures charges the drift to both. It returns each
// plan's median wall-clock and the profile aggregate of the first plan's
// runs (runs = measureRuns).
func measurePlans(first, second *core.Compiled) (firstWall, secondWall float64, firstSnap obs.ProfileSnapshot, err error) {
	a, err := newPlanRun(first)
	if err != nil {
		return 0, 0, firstSnap, err
	}
	b, err := newPlanRun(second)
	if err != nil {
		return 0, 0, firstSnap, err
	}
	for i := 0; i < measureRuns; i++ {
		order := []*planRun{a, b}
		if i%2 == 1 {
			order[0], order[1] = b, a
		}
		for _, r := range order {
			if err := r.run(); err != nil {
				return 0, 0, firstSnap, err
			}
		}
	}
	return a.median(), b.median(), a.agg.Snapshot(), nil
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

	// The baseline's runs exercise every category (it bootstraps), so
	// they are the runs the per-category model agreement is judged on.
	def, err := core.Compile(m, naive)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmeasuring baseline %s and chosen plan %s, %d runs each, alternating ...\n", baseline, report.ChosenPlan, measureRuns)
	defWall, chosenWall, defSnap, err := measurePlans(def, chosen)
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
