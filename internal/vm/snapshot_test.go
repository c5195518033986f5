package vm

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/ring"
)

// TestSnapshotResumeBitIdentical is the durability layer's core
// invariant: for every checkpoint taken during a run, restoring it on
// a fresh machine and executing the remaining instructions yields a
// result bit-identical to the uninterrupted run. The model is one
// ckks.linear with baby and giant steps, then its fold, so a snapshot
// taken between its mask encodes and the layer leaves the resumed run
// to encode the masks again.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	res, vres := compileLinearShape(t, 32, 8)
	if !hasLinearKernel(res) {
		t.Fatal("model has no ckks.linear with three babies, a giant and a fold after it")
	}
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(51))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, vres.InLayout.L)
	for i := range input {
		input[i] = float64(i%7)/7 - 0.3
	}
	ct, err := client.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint after every instruction, capturing each snapshot.
	var snaps [][]byte
	machine.Ckpt = &CheckpointPolicy{EveryN: 1, Sink: func(s []byte) error {
		snaps = append(snaps, append([]byte(nil), s...))
		return nil
	}}
	want, err := machine.RunCtx(context.Background(), res.Module, ct.CopyNew())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	nInstr := len(res.Module.Main().Body)
	if len(snaps) != nInstr {
		t.Fatalf("took %d snapshots over %d instructions", len(snaps), nInstr)
	}

	// Resume from every checkpoint, including the very last one
	// (pc == len(Body): no instructions left to run).
	for i := range snaps {
		m2 := NewMachine(shared(machine), machine.Eval.Keys())
		if err := m2.Restore(res.Module, snaps[i]); err != nil {
			t.Fatalf("restore snapshot %d: %v", i, err)
		}
		got, err := m2.RunCtx(context.Background(), res.Module, nil)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("resume from snapshot %d diverged from the uninterrupted run", i)
		}
	}
}

// hasLinearKernel reports whether the program holds a ckks.linear with
// at least three non-zero babies and a non-zero giant whose result a
// fold rotation reads: every branch of the kernel, and the layer's tail.
func hasLinearKernel(res *ckksir.Result) bool {
	kernels := map[*ir.Value]bool{}
	for _, in := range res.Module.Main().Body {
		switch in.Op {
		case ckksir.OpLinear:
			if s := ckksir.LinearSplit(in); s.Babies >= 3 && s.Giants >= 1 {
				kernels[in.Result] = true
			}
		case ckksir.OpRotate:
			if kernels[in.Args[0]] {
				return true
			}
		}
	}
	return false
}

// TestRestoreRejectsWrongProgram: a snapshot is bound to its
// instruction stream; restoring it against a different module must be
// refused by the fingerprint check.
func TestRestoreRejectsWrongProgram(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(52))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, vres.InLayout.L)
	ct, err := client.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	machine.Ckpt = &CheckpointPolicy{EveryN: 1, Sink: func(s []byte) error {
		if snap == nil {
			snap = append([]byte(nil), s...)
		}
		return nil
	}}
	if _, err := machine.RunCtx(context.Background(), res.Module, ct); err != nil {
		t.Fatal(err)
	}

	// Mutate a copy of the program: drop the last instruction.
	res2, _ := compileLinear(t)
	main := res2.Module.Main()
	main.Body = main.Body[:len(main.Body)-1]
	m2 := NewMachine(shared(machine), machine.Eval.Keys())
	if err := m2.Restore(res2.Module, snap); err == nil {
		t.Fatal("snapshot restored against a different program")
	}
}

// TestRunCtxNilInputWithoutSnapshot: a fresh run demands an input.
func TestRunCtxNilInputWithoutSnapshot(t *testing.T) {
	res, vres := compileLinear(t)
	machine, _, err := New(res, vres.InLayout.L, ring.SeedFromInt(53))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCtx(context.Background(), res.Module, nil); err == nil {
		t.Fatal("nil input without a restored snapshot must fail")
	}
}

// TestSnapshotLiveSetShrinks: snapshots carry only registers still
// read by the remaining instructions, so late checkpoints must not
// grow monotonically with program position.
func TestSnapshotLiveSetShrinks(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(54))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(make([]float64, vres.InLayout.L))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	machine.Ckpt = &CheckpointPolicy{EveryN: 1, Sink: func(s []byte) error {
		sizes = append(sizes, len(s))
		return nil
	}}
	if _, err := machine.RunCtx(context.Background(), res.Module, ct); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	maxLive := 0
	for _, s := range sizes {
		if s > maxLive {
			maxLive = s
		}
	}
	// The whole-program register file is strictly larger than any live
	// set mid-run for this program; a snapshot the size of the sum of
	// all registers would mean liveness is not applied.
	if maxLive*len(sizes) <= total {
		t.Fatalf("live-set filtering had no effect: max %d, total %d over %d snaps", maxLive, total, len(sizes))
	}
}

// TestSnapshotBytesDeterministic: equal states serialize to equal bytes.
// Two runs of one program on one input pass through the same states, so
// their checkpoint streams must match byte for byte. The program holds a
// ReLU and a global pool, so several registers are live at once.
func TestSnapshotBytesDeterministic(t *testing.T) {
	res := tinyBootstrapping(t)
	machine, client, err := New(res, vecLen(res), ring.SeedFromInt(55))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(make([]float64, vecLen(res)))
	if err != nil {
		t.Fatal(err)
	}
	record := func() [][]byte {
		var snaps [][]byte
		machine.Ckpt = &CheckpointPolicy{EveryN: 1, Sink: func(s []byte) error {
			snaps = append(snaps, bytes.Clone(s))
			return nil
		}}
		if _, err := machine.RunCtx(context.Background(), res.Module, ct); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	a, b := record(), record()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs took %d and %d snapshots", len(a), len(b))
	}
	multi := false
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("snapshot %d of the same state differs between runs", i)
		}
		// Register ids must ascend within a snapshot.
		rest := a[i][len(snapMagic)+16:]
		prev := -1
		for n := 0; len(rest) > 0; n++ {
			id := int(binary.LittleEndian.Uint32(rest))
			size := int(binary.LittleEndian.Uint32(rest[4:]))
			if id <= prev {
				t.Fatalf("snapshot %d: register %%v%d follows %%v%d", i, id, prev)
			}
			multi = multi || n > 0
			prev, rest = id, rest[8+size:]
		}
	}
	if !multi {
		t.Fatal("no snapshot held more than one register; ordering was not exercised")
	}
}
