package costmodel

import (
	"math"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/ir"
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
	price := func(op string, level int) float64 { return m.price(op, level, kswork.Split{}, nil).total() }
	instrs := []inst{
		{ckksir.OpAddPlain, 5, price(ckksir.OpAddPlain, 5)},
		{ckksir.OpMulPlain, 5, price(ckksir.OpMulPlain, 5)},
		{ckksir.OpMulPlain, 4, price(ckksir.OpMulPlain, 4)},
		{ckksir.OpRescale, 4, price(ckksir.OpRescale, 5)}, // entered at 5
		{ckksir.OpRotate, 4, price(ckksir.OpRotate, 4)},
		{ckksir.OpRotate, 4, price(ckksir.OpRotate, 4)},
		{ckksir.OpEncode, 4, ntt(m, 5)},
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
	// Fused kernels: one call of each per key switch (the two rotates),
	// priced by the true constants at level 4.
	ksWork := map[string]float64{}
	m.Expand(ckksir.OpRotate, 4, kswork.Split{}, nil, func(p kswork.Prim) { ksWork[p.Op] += p.Units })
	for op, unit := range map[string]float64{
		kswork.PolyDecompModUp: truth.ModUpPerUnit,
		kswork.PolyModMulAdd:   truth.MulAddPerUnit,
		kswork.PolyModDown:     truth.ModDownPerUnit,
	} {
		mean := unit * ksWork[op]
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

	got, fits, err := FromProfile(snap, nil, geom, DefaultCalibration())
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
	fromCold, _, err := FromProfile(cold, nil, geom, DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	fromWarm, _, err := FromProfile(warm, nil, geom, DefaultCalibration())
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
	got, _, err := FromProfile(snap, nil, geom, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.PointwisePerCoeff > base.PointwisePerCoeff*10.01 {
		t.Errorf("pointwise constant %g escaped the clamp (base %g)", got.PointwisePerCoeff, base.PointwisePerCoeff)
	}
}

// TestFromProfileAnchorsOnLinear: a program made of linear layers runs
// no ckks.rotate or ckks.relin; the key-switch anchor reads each
// ckks.linear's measured time against its split's price instead, and
// recovers kernel units that are off by one factor.
func TestFromProfileAnchorsOnLinear(t *testing.T) {
	mod := ir.NewModule("linear")
	f := mod.NewFunc("main")
	x := f.NewParam("x", ir.CipherType(64))
	x.Level = 3
	args := []*ir.Value{x}
	babies := []int{0, 1, 2, 0, 1, 2}
	for _, b := range babies {
		pt := f.Emit(ckksir.OpEncode, ir.PlainType(64), []*ir.Value{f.NewConst("m", ir.VectorType(64), []float64{1})},
			map[string]any{"level": 3, "scale": 1.0, "qp": b != 0})
		pt.Level = 3
		args = append(args, pt)
	}
	lin := f.Emit(ckksir.OpLinear, ir.CipherType(64), args, map[string]any{"b": babies, "g": []int{0, 0, 0, 4, 4, 4}})
	lin.Level = 2
	f.Ret = lin
	pc := len(f.Body) - 1

	geom := kswork.Geometry{LogN: 12, K: 2}
	truth := DefaultCalibration()
	truth.ModUpPerUnit *= 1.6
	truth.MulAddPerUnit *= 1.6
	truth.ModDownPerUnit *= 1.6
	const runs = 3
	price := (&Model{Cal: truth, Geometry: geom}).price(ckksir.OpLinear, 3, ckksir.LinearSplit(lin.Def), nil).total()
	ms := price * 1e3
	snap := obs.ProfileSnapshot{
		Runs:           runs,
		Ops:            []obs.OpStat{{Op: ckksir.OpLinear, Count: runs, MeanMs: ms, TotalMs: ms * runs}},
		LastTrajectory: []obs.TrajPoint{{PC: pc, Op: ckksir.OpLinear, Level: 2, Scale: 1}},
	}
	got, fits, err := FromProfile(snap, f, geom, DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"ModUpPerUnit":   {got.ModUpPerUnit, truth.ModUpPerUnit},
		"MulAddPerUnit":  {got.MulAddPerUnit, truth.MulAddPerUnit},
		"ModDownPerUnit": {got.ModDownPerUnit, truth.ModDownPerUnit},
	} {
		if math.Abs(pair[0]/pair[1]-1) > 1e-9 {
			t.Errorf("%s: fitted %g, true %g", name, pair[0], pair[1])
		}
	}
	if len(fits) != 1 || math.Abs(fits[0].Ratio-1) > 1e-9 {
		t.Errorf("agreement rows %+v, want one ckks.linear row at ratio 1", fits)
	}
	if blind, _, _ := FromProfile(snap, nil, geom, DefaultCalibration()); blind.ModUpPerUnit != DefaultCalibration().ModUpPerUnit {
		t.Errorf("without the program the fit moved ModUpPerUnit to %g", blind.ModUpPerUnit)
	}
}

// TestFromProfileEmpty: an idle server's snapshot is a calibration
// no-op, reported as an error rather than garbage constants.
func TestFromProfileEmpty(t *testing.T) {
	if _, _, err := FromProfile(obs.ProfileSnapshot{}, nil, kswork.Geometry{LogN: 12, K: 2}, DefaultCalibration()); err == nil {
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
