package ckks

import (
	"testing"
	"time"

	"antace/internal/kswork"
	"antace/internal/obs"
)

// TestKernelObserverCoversKeySwitch runs relinearization and a rotation
// with the observer attached and checks every fused kernel fires with a
// sane duration, and that observed names stay inside the registry — the
// wiring /v1/profilez depends on.
func TestKernelObserverCoversKeySwitch(t *testing.T) {
	tc := newTestContext(t, []int{1})
	seen := map[string]int{}
	tc.eval.KernelObserver = func(op string, d time.Duration) {
		if d < 0 {
			t.Errorf("kernel %q reported negative duration %v", op, d)
		}
		if _, ok := obs.FusedConstituents[op]; !ok {
			t.Errorf("kernel %q not in obs.FusedConstituents", op)
		}
		seen[op]++
	}
	defer func() { tc.eval.KernelObserver = nil }()

	values := randomComplexVector(tc.params.Slots(), 1, 3)
	pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encSk.Encrypt(pt)
	if _, err := tc.eval.MulRelin(ct, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.eval.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{kswork.PolyDecompModUp, kswork.PolyModMulAdd, kswork.PolyModDown} {
		if seen[op] < 2 {
			t.Errorf("kernel %q observed %d times, want >= 2 (relinearization and rotation)", op, seen[op])
		}
	}
}
