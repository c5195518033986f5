package bootstrap

import (
	"math/rand/v2"
	"testing"

	"antace/internal/par"
)

// TestParallelMatchesSerial bootstraps the same exhausted ciphertext with
// 1, 2 and 8 workers and asserts bit-identical output coefficients: the whole
// pipeline (SlotsToCoeffs, ModRaise, CoeffsToSlots, EvalMod) is exact
// modular arithmetic once the input bytes are fixed, so limb scheduling
// must not change a single coefficient. par.SetMinWork(1) precedes
// newBtContext so its rings capture a grain that parallelises at LogN 8.
func TestParallelMatchesSerial(t *testing.T) {
	par.SetMinWork(1)
	defer par.SetMinWork(0)

	tc := newBtContext(t)
	slots := tc.params.Slots()
	values := randomValues(rand.New(rand.NewPCG(17, 29)), slots, 0)
	pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encPk.Encrypt(pt)
	tc.eval.DropLevel(ct, ct.Level()-tc.bt.InputLevel())
	target := tc.bt.MaxOutputLevel()

	prev := par.Workers()
	defer par.SetWorkers(prev)

	par.SetWorkers(1)
	serial, err := tc.bt.Bootstrap(tc.eval, ct.CopyNew(), target)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par.SetWorkers(workers)
		parallel, err := tc.bt.Bootstrap(tc.eval, ct.CopyNew(), target)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Scale != parallel.Scale || len(serial.Value) != len(parallel.Value) {
			t.Fatalf("bootstrap outputs differ in shape between 1 and %d workers", workers)
		}
		for i := range serial.Value {
			if !serial.Value[i].Equal(parallel.Value[i]) {
				t.Fatalf("bootstrap output polynomial %d differs between 1 and %d workers", i, workers)
			}
		}
	}
}
