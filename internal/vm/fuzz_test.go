package vm

import (
	"context"
	"testing"

	"antace/internal/ring"
)

// FuzzSnapshotRestore feeds arbitrary bytes to Machine.Restore:
// corrupt or truncated checkpoint blobs must return an error, never
// panic, and a valid snapshot must survive a mutation-free round trip.
func FuzzSnapshotRestore(f *testing.F) {
	res, vres := compileLinear(f)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(61))
	if err != nil {
		f.Fatal(err)
	}
	ct, err := client.Encrypt(make([]float64, vres.InLayout.L))
	if err != nil {
		f.Fatal(err)
	}
	var snap []byte
	machine.Ckpt = &CheckpointPolicy{EveryN: 2, Sink: func(s []byte) error {
		snap = append([]byte(nil), s...)
		return nil
	}}
	if _, err := machine.RunCtx(context.Background(), res.Module, ct); err != nil {
		f.Fatal(err)
	}
	if snap == nil {
		f.Fatal("no checkpoint captured")
	}
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte("ACEVMS1\n"))
	f.Add(snap[:len(snap)/2])
	truncHeader := append([]byte(nil), snap[:24]...)
	f.Add(truncHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMachine(shared(machine), machine.Eval.Keys())
		if err := m.Restore(res.Module, data); err != nil {
			return
		}
		// A blob that restores cleanly must also execute to completion:
		// the fingerprint pins the program, Unmarshal pins each
		// register, so the only accepted inputs are real snapshots.
		if _, err := m.RunCtx(context.Background(), res.Module, nil); err != nil {
			t.Logf("restored snapshot failed to run: %v", err)
		}
	})
}
