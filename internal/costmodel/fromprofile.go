package costmodel

import (
	"fmt"
	"math"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/obs"
)

// OpFit is one opcode's measured-vs-predicted agreement after a profile
// fit: the per-instruction mean the server measured and what the fitted
// model predicts for the same instruction mix.
type OpFit struct {
	Op          string  `json:"op"`
	Count       uint64  `json:"count"`
	MeasuredMs  float64 `json:"measured_ms"`
	PredictedMs float64 `json:"predicted_ms"`
	Ratio       float64 `json:"ratio"` // measured / predicted
}

// fitClamp bounds every profile-derived scale factor: a live aggregate
// polluted by one anomalous run must not drag a constant to nonsense.
const (
	fitClampLo = 0.1
	fitClampHi = 10.0
)

func clampRatio(r float64) float64 {
	if math.IsNaN(r) || r <= 0 {
		return 1
	}
	return math.Min(fitClampHi, math.Max(fitClampLo, r))
}

// trajLevels collects, per opcode, the *input* levels of every
// trajectory point. The trajectory records each instruction's result
// level; rescale is the one op whose result sits a level below its
// input.
func trajLevels(snap obs.ProfileSnapshot) map[string][]int {
	out := map[string][]int{}
	for _, pt := range snap.LastTrajectory {
		l := pt.Level
		if pt.Op == ckksir.OpRescale {
			l++
		}
		out[pt.Op] = append(out[pt.Op], l)
	}
	return out
}

// meanOpCost returns the model's mean price of one opcode over its
// trajectory levels (Model.opCost, InferenceCost's price), and whether
// the op is a primitive the fit understands.
func meanOpCost(m *Model, op string, levels []int) (float64, bool) {
	if len(levels) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, l := range levels {
		c, ok := m.opCost(op, l)
		if !ok {
			return 0, false
		}
		sum += c
	}
	return sum / float64(len(levels)), true
}

// pwOps are the opcodes whose cost is purely pointwise — the cleanest
// observations of PointwisePerCoeff.
var pwOps = []string{ckksir.OpAdd, ckksir.OpAddPlain, ckksir.OpMulPlain, ckksir.OpMulConst, ckksir.OpMul}

// linearRun is one ckks.linear the trajectory recorded: its split and
// its input level, read from the program that ran.
type linearRun struct {
	split kswork.Split
	level int
}

// linearRuns returns the ckks.linear instructions of prog the trajectory
// passed through, in its order; none without a program.
func linearRuns(prog *ir.Func, traj []obs.TrajPoint) []linearRun {
	var out []linearRun
	for _, pt := range traj {
		if prog == nil || pt.Op != ckksir.OpLinear || pt.PC < 0 || pt.PC >= len(prog.Body) {
			continue
		}
		if in := prog.Body[pt.PC]; in.Op == ckksir.OpLinear {
			out = append(out, linearRun{ckksir.LinearSplit(in), in.Args[0].Level})
		}
	}
	return out
}

// kernelWork returns the model's work count (in the kernel's calibration
// units) for one fused-kernel observation at input level l.
func kernelWork(m *Model, kernel string, l int) float64 {
	switch kernel {
	case "poly.decomp_modup":
		return m.ModUp(l)
	case "poly.hw_modmuladd":
		return m.MulAdd(l)
	case "poly.mod_down":
		return m.ModDown(l)
	}
	return 0
}

// FromProfile recalibrates the cost model from a live /v1/profilez
// snapshot: the aggregated per-opcode (and per-fused-kernel) mean times
// measured on *this* machine under *this* geometry are inverted back
// into the per-element constants, starting from base. The last run's
// level/scale trajectory supplies the level each opcode executed at, and
// prog, the function that ran (nil: unknown), the split of each
// ckks.linear it passed through.
//
// The fit is a ratio scaling, op family by op family:
//   - PointwisePerCoeff from the purely pointwise ops (add, add_plain,
//     mul_plain, mul_const, mul), count-weighted;
//   - NTTPerButterfly from rescale after subtracting its fitted
//     pointwise share (ckks.encode is no evidence: a steady-state profile
//     has no encode samples, and the trajectory, which follows
//     ciphertexts, never says at which level a cold one ran);
//   - the three fused-kernel constants from the Kernels table, priced at
//     the key-switch levels the trajectory observed, then anchored
//     together on the measured rotate/relin/linear totals.
//
// Macro ops (ckks.poly, ckks.bootstrap) need the compiled schedule's
// attributes; FitSchedule refines their correction scales separately.
// Every ratio is clamped to [0.1, 10] of base.
func FromProfile(snap obs.ProfileSnapshot, prog *ir.Func, geom kswork.Geometry, base Calibration) (Calibration, []OpFit, error) {
	if snap.Runs == 0 || len(snap.Ops) == 0 {
		return base, nil, fmt.Errorf("costmodel: profile snapshot has no runs")
	}
	if len(snap.LastTrajectory) == 0 {
		return base, nil, fmt.Errorf("costmodel: profile snapshot has no trajectory (levels unknown)")
	}
	levels := trajLevels(snap)
	linears := linearRuns(prog, snap.LastTrajectory)
	stats := map[string]obs.OpStat{}
	for _, st := range snap.Ops {
		stats[st.Op] = st
	}
	m := &Model{Cal: base, Geometry: geom}

	c := base
	c.Source = "profile"
	c.KeySwitchMeasuredSec, c.KeySwitchPredictedSec = 0, 0

	// Pointwise family: count-weighted measured vs predicted totals.
	var measPw, predPw float64
	for _, op := range pwOps {
		st, ok := stats[op]
		if !ok {
			continue
		}
		pm, ok := meanOpCost(m, op, levels[op])
		if !ok {
			continue
		}
		measPw += st.TotalMs / 1e3
		predPw += pm * float64(st.Count)
	}
	xPw := clampRatio(measPw / predPw)
	c.PointwisePerCoeff = base.PointwisePerCoeff * xPw

	// NTT family from rescale: subtract the fitted pointwise share,
	// attribute the rest to the butterflies.
	if st, ok := stats[ckksir.OpRescale]; ok && len(levels[ckksir.OpRescale]) > 0 {
		var predNtt, predPwShare float64
		w := float64(st.Count) / float64(len(levels[ckksir.OpRescale]))
		for _, l := range levels[ckksir.OpRescale] {
			predNtt += 2 * (m.ntt(1) + m.ntt(l)) * w // r-1 = l residues after the drop
			predPwShare += 4 * m.pw(l) * w * xPw     // 2 halves × 2 passes
		}
		c.NTTPerButterfly = base.NTTPerButterfly * clampRatio((st.TotalMs/1e3-predPwShare)/predNtt)
	}

	// Fused kernels: the Kernels table times the three key-switch
	// kernels directly. Price each observation at the key-switch levels
	// the trajectory saw (rotate, relin, a linear layer's input);
	// bootstrap-internal switches run at nearby levels, and the clamp
	// bounds the residual error.
	ksLevels := append(append([]int{}, levels[ckksir.OpRotate]...), levels[ckksir.OpRelin]...)
	for _, r := range linears {
		ksLevels = append(ksLevels, r.level)
	}
	if len(ksLevels) > 0 && len(snap.Kernels) > 0 {
		for _, st := range snap.Kernels {
			var unit *float64
			switch st.Op {
			case "poly.decomp_modup":
				unit = &c.ModUpPerUnit
			case "poly.hw_modmuladd":
				unit = &c.MulAddPerUnit
			case "poly.mod_down":
				unit = &c.ModDownPerUnit
			default:
				continue
			}
			work := 0.0
			for _, l := range ksLevels {
				work += kernelWork(m, st.Op, l)
			}
			work /= float64(len(ksLevels))
			pred := *unit * work
			meas := st.MeanMs / 1e3
			*unit *= clampRatio(meas / pred)
		}
	}

	// The kernel table aggregates every key switch in the program —
	// bootstrap-internal switches run at other levels than the module's
	// own rotations, so the table-fitted units carry a level-mix bias.
	// Anchor them on the measured rotate/relin/linear op means: one
	// uniform rescale of the three units makes the model reproduce the
	// measured key-switch totals at the levels the trajectory recorded.
	// A linear layer's kernels are its split's (linearTransformCost).
	mc := &Model{Cal: c, Geometry: geom}
	var measKs, fixedKs, kernKs float64
	for _, op := range []string{ckksir.OpRotate, ckksir.OpRelin} {
		st, ok := stats[op]
		if !ok || len(levels[op]) == 0 {
			continue
		}
		w := float64(st.Count) / float64(len(levels[op]))
		for _, l := range levels[op] {
			kern := mc.fusedSeconds(mc.Geometry.KeySwitch(l))
			price, _ := mc.opCost(op, l)
			kernKs += w * kern
			fixedKs += w * (price - kern) // the input transform, a rotation's slot permutation
		}
		measKs += st.TotalMs / 1e3
	}
	if st, ok := stats[ckksir.OpLinear]; ok && len(linears) > 0 {
		w := float64(st.Count) / float64(len(linears))
		for _, r := range linears {
			kern := mc.fusedSeconds(mc.LinearTransform(r.split, r.level))
			kernKs += w * kern
			fixedKs += w * (mc.linearTransformCost(r.split, r.level) - kern)
		}
		measKs += st.TotalMs / 1e3
	}
	if kernKs > 0 && measKs > fixedKs {
		x := clampRatio((measKs - fixedKs) / kernKs)
		c.ModUpPerUnit *= x
		c.MulAddPerUnit *= x
		c.ModDownPerUnit *= x
	}

	// Agreement report under the fitted constants.
	fitted := &Model{Cal: c, Geometry: geom}
	var fits []OpFit
	for _, st := range snap.Ops {
		pm, ok := meanOpCost(fitted, st.Op, levels[st.Op])
		if st.Op == ckksir.OpLinear && len(linears) > 0 {
			pm, ok = 0, true
			for _, r := range linears {
				pm += fitted.linearTransformCost(r.split, r.level) / float64(len(linears))
			}
		}
		if !ok {
			continue
		}
		f := OpFit{Op: st.Op, Count: st.Count, MeasuredMs: st.MeanMs, PredictedMs: pm * 1e3}
		if f.PredictedMs > 0 {
			f.Ratio = f.MeasuredMs / f.PredictedMs
		}
		fits = append(fits, f)
	}
	return c, fits, nil
}

// FitSchedule refines the macro-op correction scales against a compiled
// schedule: PolyScale and BootstrapScale are set so the model's
// structural ckks.poly / ckks.bootstrap estimates match the measured
// per-run totals from the snapshot. The primitive constants are left
// untouched — call FromProfile first, then FitSchedule with its result.
func FitSchedule(cal Calibration, geom kswork.Geometry, res *ckksir.Result, snap obs.ProfileSnapshot) Calibration {
	if snap.Runs == 0 {
		return cal
	}
	probe := cal
	probe.PolyScale, probe.BootstrapScale = 0, 0 // structural estimates
	m := &Model{Cal: probe, Geometry: geom}
	var predPoly, predBoot float64
	for _, in := range res.Module.Main().Body {
		switch in.Op {
		case ckksir.OpPoly:
			predPoly += m.polyInstrCost(in)
		case ckksir.OpBootstrap:
			predBoot += m.bootstrapCost(in.AttrInt("target", 1), bootParams(res))
		}
	}
	if meas := snap.OpSecPerRun(ckksir.OpPoly); meas > 0 && predPoly > 0 {
		cal.PolyScale = clampRatio(meas / predPoly)
	}
	if meas := snap.OpSecPerRun(ckksir.OpBootstrap); meas > 0 && predBoot > 0 {
		cal.BootstrapScale = clampRatio(meas / predBoot)
	}
	return cal
}

// MeasuredBreakdown buckets a snapshot's measured per-opcode time into
// the Figure-6 categories, normalised to seconds per run — the measured
// counterpart of Model.InferenceCost for the same program.
func MeasuredBreakdown(snap obs.ProfileSnapshot) (Breakdown, error) {
	var b Breakdown
	if snap.Runs == 0 {
		return b, fmt.Errorf("costmodel: profile snapshot has no runs")
	}
	for _, st := range snap.Ops {
		if st.Op == ckksir.OpEncode {
			// Paid once, by whichever runs first touched each weight: a
			// total, not a per-run mean.
			b.Setup += st.TotalMs / 1e3
			continue
		}
		b.Add(CategoryOfOp(st.Op), st.TotalMs/1e3/float64(snap.Runs))
	}
	return b, nil
}
