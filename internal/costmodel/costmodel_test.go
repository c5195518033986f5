package costmodel

import (
	"math"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/kswork"
	"antace/internal/poly"
)

func TestCalibrateSane(t *testing.T) {
	cal, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if cal.NTTPerButterfly <= 0 || cal.NTTPerButterfly > 1e-6 {
		t.Fatalf("NTT constant %g implausible", cal.NTTPerButterfly)
	}
	if cal.PointwisePerCoeff <= 0 || cal.PointwisePerCoeff > 1e-6 {
		t.Fatalf("pointwise constant %g implausible", cal.PointwisePerCoeff)
	}
}

func TestKeySwitchScaling(t *testing.T) {
	m := &Model{Cal: DefaultCalibration(), Geometry: kswork.Geometry{LogN: 16, K: 2}}
	// Key switching cost must grow superlinearly with level (the r^2
	// behaviour the paper cites for rotations/multiplications).
	low := m.KeySwitch(4)
	high := m.KeySwitch(20)
	if high < 4*low {
		t.Fatalf("keyswitch cost not superlinear: %g vs %g", low, high)
	}
	// And with ring degree: doubling N slightly more than doubles cost.
	m2 := &Model{Cal: DefaultCalibration(), Geometry: kswork.Geometry{LogN: 17, K: 2}}
	if m2.KeySwitch(10) <= m.KeySwitch(10) {
		t.Fatal("keyswitch cost not increasing in N")
	}
}

// TestKeySwitchModelRanksDigits: the model must rank special-prime counts
// the way the runtime does. A program switches keys at every level of
// its chain, so the ranking is over the mean cost across the 30-prime
// chain of the bootstrapped reduced ResNets at logN 9, where the measured
// end-to-end sweep (EXPERIMENTS.md, "key-switch digit sweep") falls
// 2 > 4 > 6, is flat between 6 and 8 and rises again at 10.
func TestKeySwitchModelRanksDigits(t *testing.T) {
	mean := func(k int) float64 {
		m := &Model{Cal: DefaultCalibration(), Geometry: kswork.Geometry{LogN: 9, K: k}}
		sum := 0.0
		for l := 1; l < 30; l++ {
			sum += m.KeySwitch(l)
		}
		return sum / 29
	}
	if !(mean(2) > mean(4) && mean(4) > mean(6)) {
		t.Errorf("model not monotone over K = 2, 4, 6: %.3g %.3g %.3g", mean(2), mean(4), mean(6))
	}
	best := 2
	for _, k := range []int{4, 6, 8, 10} {
		if mean(k) < mean(best) {
			best = k
		}
	}
	if best != 6 && best != 8 {
		t.Errorf("model bottoms out at K = %d, measured plateau is 6..8", best)
	}
	// At the top of the chain alone a wider special modulus still wins
	// (fewest digits); it is the low levels, where the K special rows are
	// most of the basis, that pull the optimum back.
	top := func(k int) float64 {
		return (&Model{Cal: DefaultCalibration(), Geometry: kswork.Geometry{LogN: 9, K: k}}).KeySwitch(29)
	}
	if top(10) >= top(6) {
		t.Errorf("top-level switch: K=10 %.3g not below K=6 %.3g", top(10), top(6))
	}
}

// TestCalibrateMeasuresEverything: every constant — the three fused
// key-switch kernels included — must come from a real microbenchmark, not
// a fabricated multiple of another constant.
func TestCalibrateMeasuresEverything(t *testing.T) {
	cal, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"ModUpPerUnit":   cal.ModUpPerUnit,
		"MulAddPerUnit":  cal.MulAddPerUnit,
		"ModDownPerUnit": cal.ModDownPerUnit,
	} {
		if v <= 0 || v > 1e-6 {
			t.Errorf("%s = %g implausible", name, v)
		}
	}
	if cal.Source != "microbench" {
		t.Errorf("Source = %q, want microbench", cal.Source)
	}
}

// TestCalibrateCrossCheck: the derived constants must reproduce a
// measured end-to-end key switch. The tolerance band is 3x — wide
// enough for CI noise and scheduler jitter, tight enough to catch a
// constant that is off by an order of magnitude (the failure mode the
// warmup fix exists for).
func TestCalibrateCrossCheck(t *testing.T) {
	cal, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	e, err := cal.CrossCheckErr()
	if err != nil {
		t.Fatal(err)
	}
	if e > 1.585 { // log2(3)
		t.Fatalf("key-switch cross-check off by 2^%.2f: measured %.3gs, predicted %.3gs",
			e, cal.KeySwitchMeasuredSec, cal.KeySwitchPredictedSec)
	}
}

// TestInferenceCostLevelAccounting pins the level convention with a
// hand-counted schedule: Result.Level is the post-op level, every Model
// method takes the pre-op level, and the one op where the two differ
// (rescale) is translated exactly once — no double increment.
func TestInferenceCostLevelAccounting(t *testing.T) {
	mod := ir.NewModule("hand")
	f := mod.NewFunc("main")
	ct := ir.CipherType(64)
	x := f.NewParam("x", ct)
	x.Level = 3

	v1 := f.Emit(ckksir.OpMulPlain, ct, []*ir.Value{x}, nil)
	v1.Level = 3 // mul_plain keeps the level
	v2 := f.Emit(ckksir.OpRescale, ct, []*ir.Value{v1}, nil)
	v2.Level = 2 // entered at 3, dropped to 2
	v3 := f.Emit(ckksir.OpRotate, ct, []*ir.Value{v2}, map[string]any{"k": 1})
	v3.Level = 2
	f.Ret = v3

	m := &Model{Cal: DefaultCalibration(), Geometry: kswork.Geometry{LogN: 12, K: 2}}
	got := m.InferenceCost(&ckksir.Result{Module: mod}).Total()

	// Hand count. mul_plain at level 3: two pointwise passes over 4
	// residues. rescale entered at level 3 (4 residues): one INTT pair
	// over the dropped row and the remaining 3 rows, two pointwise
	// passes over 3 rows, per ciphertext half. rotate at level 2: one
	// key switch of a 3-residue ciphertext plus the slot permutation.
	want := 2*m.pw(4) +
		2*(m.ntt(1)+m.ntt(3)+2*m.pw(3)) +
		m.KeySwitch(2) + 2*m.pw(3)
	if diff := math.Abs(got-want) / want; diff > 1e-12 {
		t.Fatalf("hand-counted schedule: got %.6g, want %.6g (rel diff %g)", got, want, diff)
	}

	// The rescale term must be Rescale(input level), i.e. Rescale(3) —
	// passing the already-incremented result level back into a method
	// that increments again would price a 5-residue rescale.
	if m.Rescale(3) == m.Rescale(4) {
		t.Fatal("Rescale(3) == Rescale(4); the convention test is vacuous")
	}
}

// TestPolyEvalCostFollowsThePlan hand-counts a polynomial stage: c3·x³ +
// c1·x entering at level 5 is planned as x² (a product at level 5), the
// quotient c3·x (a constant multiply and its rescale at level 5), and the
// root (c3·x)·x² + c1·x one level down, relinearised once and rescaled.
// Nothing is priced at a guessed level.
func TestPolyEvalCostFollowsThePlan(t *testing.T) {
	m := &Model{Cal: DefaultCalibration(), Geometry: kswork.Geometry{LogN: 12, K: 2}}
	got := m.polyEvalCost(poly.NewPlan(poly.NewMonomial(0, 0.5, 0, -0.25)), 5)
	want := 5*m.pw(6) + m.KeySwitch(5) + m.Rescale(5) + // x²
		2*m.pw(6) + m.Rescale(5) + // c3·x
		5*m.pw(5) + 2*m.pw(5) + 2*m.pw(5) + m.KeySwitch(4) + m.Rescale(4) // root
	if diff := math.Abs(got-want) / want; diff > 1e-12 {
		t.Fatalf("degree-3 stage at level 5: got %.6g, want %.6g (rel diff %g)", got, want, diff)
	}
}
