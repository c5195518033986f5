package costmodel

import (
	"math"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/kswork"
	"antace/internal/obs"
)

// synthSnapshot builds a ProfileSnapshot whose measured times are
// *generated* from a known "true" calibration, so FromProfile's fit can
// be checked for exact recovery.
func synthSnapshot(truth Calibration, geom kswork.Geometry) obs.ProfileSnapshot {
	m := &Model{Cal: truth, Geometry: geom}
	const runs = 4
	type inst struct {
		op    string
		level int // result level, as the trajectory records it
		cost  float64
	}
	instrs := []inst{
		{ckksir.OpAddPlain, 5, 2 * m.pw(6)},
		{ckksir.OpMulPlain, 5, 2 * m.pw(6)},
		{ckksir.OpMulPlain, 4, 2 * m.pw(5)},
		{ckksir.OpRescale, 4, m.Rescale(5)}, // entered at 5
		{ckksir.OpRotate, 4, m.KeySwitch(4) + 2*m.pw(5)},
		{ckksir.OpRotate, 4, m.KeySwitch(4) + 2*m.pw(5)},
		{ckksir.OpEncode, 4, m.ntt(5)},
	}
	snap := obs.ProfileSnapshot{Runs: runs}
	totals := map[string]*obs.OpStat{}
	for pc, in := range instrs {
		// The trajectory follows ciphertexts; an encode makes a plaintext.
		if in.op != ckksir.OpEncode {
			snap.LastTrajectory = append(snap.LastTrajectory, obs.TrajPoint{PC: pc, Op: in.op, Level: in.level, Scale: 1})
		}
		st := totals[in.op]
		if st == nil {
			st = &obs.OpStat{Op: in.op}
			totals[in.op] = st
		}
		st.Count += runs
		st.TotalMs += in.cost * 1e3 * runs
	}
	for _, st := range totals {
		st.MeanMs = st.TotalMs / float64(st.Count)
		snap.Ops = append(snap.Ops, *st)
	}
	// Fused kernels: one observation per key switch (the two rotates),
	// priced by the true constants at level 4.
	ksWork := func(op string) float64 { return kernelWork(m, op, 4) }
	for op, unit := range map[string]float64{
		"poly.decomp_modup": truth.ModUpPerUnit,
		"poly.hw_modmuladd": truth.MulAddPerUnit,
		"poly.mod_down":     truth.ModDownPerUnit,
	} {
		mean := unit * ksWork(op)
		snap.Kernels = append(snap.Kernels, obs.OpStat{
			Op: op, Count: 2 * runs, MeanMs: mean * 1e3, TotalMs: mean * 1e3 * 2 * runs,
		})
	}
	return snap
}

// TestFromProfileRecoversConstants: measurements generated from a known
// calibration must be inverted back to it, starting from a deliberately
// wrong base.
func TestFromProfileRecoversConstants(t *testing.T) {
	geom := kswork.Geometry{LogN: 12, K: 2}
	truth := DefaultCalibration()
	truth.PointwisePerCoeff *= 2.0
	truth.NTTPerButterfly *= 0.6
	truth.ModUpPerUnit *= 1.7
	truth.MulAddPerUnit *= 0.5
	truth.ModDownPerUnit *= 1.4
	snap := synthSnapshot(truth, geom)

	got, fits, err := FromProfile(snap, geom, DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "profile" {
		t.Errorf("Source = %q, want profile", got.Source)
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if r := got / want; r < 1-tol || r > 1+tol {
			t.Errorf("%s: fitted %g vs true %g (ratio %.3f)", name, got, want, r)
		}
	}
	within("PointwisePerCoeff", got.PointwisePerCoeff, truth.PointwisePerCoeff, 0.05)
	// The NTT fit subtracts the pointwise share of rescale first, so its
	// tolerance is looser.
	within("NTTPerButterfly", got.NTTPerButterfly, truth.NTTPerButterfly, 0.25)
	within("ModUpPerUnit", got.ModUpPerUnit, truth.ModUpPerUnit, 0.05)
	within("MulAddPerUnit", got.MulAddPerUnit, truth.MulAddPerUnit, 0.05)
	within("ModDownPerUnit", got.ModDownPerUnit, truth.ModDownPerUnit, 0.05)

	if len(fits) == 0 {
		t.Fatal("no per-op fit rows")
	}
	for _, f := range fits {
		if f.Ratio < 0.5 || f.Ratio > 2 {
			t.Errorf("op %s fit ratio %.2f outside 2x after recalibration", f.Op, f.Ratio)
		}
	}
}

// TestFromProfileWithoutEncode: a server whose weight table is warm
// serves profiles with no ckks.encode row at all. The fit must not need
// one, nor be moved by one a cold run left behind.
func TestFromProfileWithoutEncode(t *testing.T) {
	geom := kswork.Geometry{LogN: 12, K: 2}
	truth := DefaultCalibration()
	truth.NTTPerButterfly *= 0.6
	cold := synthSnapshot(truth, geom)
	warm := cold
	warm.Ops = nil
	for _, st := range cold.Ops {
		if st.Op != ckksir.OpEncode {
			warm.Ops = append(warm.Ops, st)
		}
	}
	if len(warm.Ops) != len(cold.Ops)-1 {
		t.Fatal("synthetic snapshot has no encode row to drop")
	}
	fromCold, _, err := FromProfile(cold, geom, DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	fromWarm, _, err := FromProfile(warm, geom, DefaultCalibration())
	if err != nil {
		t.Fatalf("profile without encode samples: %v", err)
	}
	if fromWarm != fromCold {
		t.Fatalf("fit moved with the encode row:\n cold %+v\n warm %+v", fromCold, fromWarm)
	}
}

// TestFromProfileClamps: a nonsense aggregate (one op a thousand times
// slower than physics allows) must not drag a constant beyond the 10x
// guard rail.
func TestFromProfileClamps(t *testing.T) {
	geom := kswork.Geometry{LogN: 12, K: 2}
	base := DefaultCalibration()
	snap := synthSnapshot(base, geom)
	for i := range snap.Ops {
		snap.Ops[i].TotalMs *= 1000
		snap.Ops[i].MeanMs *= 1000
	}
	got, _, err := FromProfile(snap, geom, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.PointwisePerCoeff > base.PointwisePerCoeff*10.01 {
		t.Errorf("pointwise constant %g escaped the clamp (base %g)", got.PointwisePerCoeff, base.PointwisePerCoeff)
	}
}

// TestFromProfileEmpty: an idle server's snapshot is a calibration
// no-op, reported as an error rather than garbage constants.
func TestFromProfileEmpty(t *testing.T) {
	if _, _, err := FromProfile(obs.ProfileSnapshot{}, kswork.Geometry{LogN: 12, K: 2}, DefaultCalibration()); err == nil {
		t.Fatal("empty snapshot did not error")
	}
}

// TestMeasuredBreakdownBuckets: the measured bucketing must mirror
// InferenceCost's category mapping exactly.
func TestMeasuredBreakdownBuckets(t *testing.T) {
	snap := obs.ProfileSnapshot{
		Runs: 2,
		Ops: []obs.OpStat{
			{Op: ckksir.OpRotate, TotalMs: 2000},
			{Op: ckksir.OpPoly, TotalMs: 4000},
			{Op: ckksir.OpBootstrap, TotalMs: 6000},
			{Op: ckksir.OpMul, TotalMs: 1000},
			{Op: ckksir.OpEncode, TotalMs: 500},
		},
	}
	b, err := MeasuredBreakdown(snap)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Conv-1) > 1e-9 || math.Abs(b.ReLU-2.5) > 1e-9 || math.Abs(b.Bootstrap-3) > 1e-9 {
		t.Fatalf("breakdown %+v, want conv=1 relu=2.5 bootstrap=3 (s/run)", b)
	}
	// Encoding is paid once, not per run, and is no part of the total.
	if math.Abs(b.Setup-0.5) > 1e-9 || math.Abs(b.Total()-6.5) > 1e-9 {
		t.Fatalf("breakdown %+v: want setup=0.5 s outside a per-run total of 6.5 s", b)
	}
	if _, err := MeasuredBreakdown(obs.ProfileSnapshot{}); err == nil {
		t.Fatal("zero-run snapshot did not error")
	}
}
