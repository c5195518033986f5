package vm

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/nnir"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/sihe"
	"antace/internal/vecir"
)

func compileLinear(t testing.TB) (*ckksir.Result, *vecir.Result) {
	t.Helper()
	m, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := vecir.Lower(nn, vecir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sihe.Lower(vres.Module, sihe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ckksir.Lower(sm, ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, vres
}

func TestMachineRunsLinearModel(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(7))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, vres.InLayout.L)
	for i := range input {
		input[i] = float64(i%5)/5 - 0.4
	}
	ct, err := client.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(res.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := client.Decrypt(out)
	// Reference: vector executor on the same slots.
	want, err := vecir.Run(vres.Module.Main(), input)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		slot := vres.OutLayout.Slot(k, 0, 0)
		if math.Abs(got[slot]-want[slot]) > 1e-4 {
			t.Fatalf("class %d: vm %g vs vec %g", k, got[slot], want[slot])
		}
	}
	if machine.KeyCount != len(res.Rotations) {
		t.Fatalf("key count %d, analysis says %d", machine.KeyCount, len(res.Rotations))
	}
}

// TestRunCtxCancellation proves server deadlines reach the run loop: a
// context canceled mid-flight aborts the program between instructions.
func TestRunCtxCancellation(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(11))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(make([]float64, vres.InLayout.L))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := machine.RunCtx(ctx, res.Module, ct); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if _, err := machine.RunCtx(ctx2, res.Module, ct); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}

	// A live context still runs to completion.
	if _, err := machine.RunCtx(context.Background(), res.Module, ct); err != nil {
		t.Fatal(err)
	}
}

// TestNewMachineFromWireKeys replays the serving flow in miniature: the
// client generates keys, ships them as bytes, and a machine built from
// the deserialized set produces the same decrypted result as the
// locally keyed one.
func TestNewMachineFromWireKeys(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(12))
	if err != nil {
		t.Fatal(err)
	}

	params, err := ckks.NewParameters(res.Literal)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(12))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(res.Rotations, false, sk),
	}
	wire, err := keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ckks.EvaluationKeySet
	if err := got.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}

	remote := NewMachine(params, &got, nil, nil)
	input := make([]float64, vres.InLayout.L)
	for i := range input {
		input[i] = float64(i%3)/3 - 0.3
	}
	ct, err := client.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := machine.Run(res.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := remote.Run(res.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	a, b := client.Decrypt(out1), client.Decrypt(out2)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-4 {
			t.Fatalf("slot %d: local keys %g, wire keys %g", i, a[i], b[i])
		}
	}
}

func TestEncryptRejectsWrongLength(t *testing.T) {
	res, vres := compileLinear(t)
	_, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Encrypt(make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestMachineDetectsCompilerMismatch(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(9))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the tracked level of one instruction: the VM must notice.
	var victim *ir.Instr
	for _, in := range res.Module.Main().Body {
		if in.Result.Type.Kind == ir.KindCipher {
			victim = in
			break
		}
	}
	if victim == nil {
		t.Fatal("no cipher instruction found")
	}
	victim.Result.Level += 3
	ct, err := client.Encrypt(make([]float64, vres.InLayout.L))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(res.Module, ct); err == nil {
		t.Fatal("expected a level-mismatch error")
	}
}

func TestMachineRejectsBootstrapWithoutBootstrapper(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(10))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Module.Main()
	// Splice a bootstrap op onto the parameter (ill-typed level-wise, but
	// the bootstrapper check fires first).
	bt := &ir.Instr{Op: ckksir.OpBootstrap, Args: []*ir.Value{f.Params[0]},
		Attrs: map[string]any{"target": 1}, Result: f.NewValue("", ir.CipherType(vres.InLayout.L))}
	bt.Result.Def = bt
	f.Body = append([]*ir.Instr{bt}, f.Body...)
	ct, _ := client.Encrypt(make([]float64, vres.InLayout.L))
	if _, err := machine.Run(res.Module, ct); err == nil {
		t.Fatal("expected missing-bootstrapper error")
	}
}

// TestRunProfileInstrumentation proves the profiler sees every executed
// instruction: counts match the program body, the op-time sum tracks
// the wall-clock run within the 10% budget the paper-figure check
// demands, and the trajectory mirrors each result's level and scale.
// Once the weight table is warm an encode does no work and leaves no
// sample, so ckks.encode is absent from the second run's profile.
func TestRunProfileInstrumentation(t *testing.T) {
	res, vres := compileLinear(t)
	machine, client, err := New(res, vres.InLayout.L, ring.SeedFromInt(21))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(make([]float64, vres.InLayout.L))
	if err != nil {
		t.Fatal(err)
	}

	machine.Prof = obs.NewRunProfile()
	start := time.Now()
	if _, err := machine.Run(res.Module, ct); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	body := res.Module.Main().Body
	if got := machine.Prof.Steps(); got != uint64(len(body)) {
		t.Fatalf("profiled %d instructions, program has %d", got, len(body))
	}
	// Per-op counts must match the static instruction mix.
	wantByOp := map[string]uint64{}
	for _, in := range body {
		wantByOp[in.Op]++
	}
	for _, st := range machine.Prof.Ops() {
		if st.Count != wantByOp[st.Op] {
			t.Errorf("op %s: profiled %d, program has %d", st.Op, st.Count, wantByOp[st.Op])
		}
	}
	if sum := machine.Prof.Total(); sum > wall || float64(sum) < 0.9*float64(wall)-float64(5*time.Millisecond) {
		t.Errorf("op-time sum %v outside 10%% of wall %v", sum, wall)
	}
	// Trajectory: one point per ciphertext-producing instruction, levels
	// and scales as the compiler tracked them.
	for _, pt := range machine.Prof.Trajectory {
		in := body[pt.PC]
		if in.Op != pt.Op {
			t.Fatalf("trajectory pc %d records op %s, program has %s", pt.PC, pt.Op, in.Op)
		}
		if in.Result.Type.Kind != ir.KindCipher3 && pt.Level != in.Result.Level {
			t.Errorf("trajectory pc %d level %d, compiler %d", pt.PC, pt.Level, in.Result.Level)
		}
	}

	// A second run on the same machine with a fresh profile starts clean,
	// and finds every plaintext in the table.
	machine.Prof = obs.NewRunProfile()
	if _, err := machine.Run(res.Module, ct); err != nil {
		t.Fatal(err)
	}
	if got, want := machine.Prof.Steps(), uint64(len(body))-wantByOp[ckksir.OpEncode]; got != want {
		t.Fatalf("second run profiled %d instructions, want %d (all but the encodes)", got, want)
	}
	for _, st := range machine.Prof.Ops() {
		if st.Op == ckksir.OpEncode {
			t.Fatalf("warm run recorded %d ckks.encode samples", st.Count)
		}
	}
}
