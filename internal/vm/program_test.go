package vm

import (
	"bytes"
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"antace/internal/batch"
	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/sihe"
	"antace/internal/tensor"
)

func testConfig(mode ckksir.BootstrapMode) core.Config {
	return core.Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{LogScale: 40, Mode: mode, IgnoreSecurity: true},
	}
}

func compile(t testing.TB, m *onnx.Model, err error, cfg core.Config) *ckksir.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.CKKS
}

// tinyBootstrapping is a conv → ReLU → pool → gemm model small enough to
// bootstrap in milliseconds (logN 6).
func tinyBootstrapping(t testing.TB) *ckksir.Result {
	rng := rand.New(rand.NewPCG(11, 13))
	weight := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * 0.4
		}
		return w
	}
	b := onnx.NewBuilder("tiny_relu")
	cur := b.Input("image", 1, 1, 4, 4)
	cur = b.Conv(cur, b.Weight("conv.weight", weight(2, 1, 3, 3)), b.Weight("conv.bias", weight(2)), 1, 1)
	cur = b.Flatten(b.GlobalAveragePool(b.Relu(cur)))
	cur = b.Gemm(cur, b.Weight("fc.weight", weight(3, 2)), b.Weight("fc.bias", tensor.New(3)))
	b.Output(cur, 1, 3)
	m := b.Model()
	res := compile(t, m, m.Validate(), testConfig(ckksir.BootstrapAlways))
	if res.Bootstraps == 0 {
		t.Fatal("expected at least one bootstrap")
	}
	return res
}

func randomInput(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 29))
	in := make([]float64, n)
	for i := range in {
		in[i] = rng.Float64() - 0.5
	}
	return in
}

func wire(t testing.TB, ct *ckks.Ciphertext) []byte {
	t.Helper()
	b, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// vecLen is the packed input length a compiled module expects.
func vecLen(res *ckksir.Result) int { return res.Module.Main().Params[0].Type.Len() }

// stageDiagonals counts the diagonals of every DFT stage matrix the
// program's bootstrapper holds: the masks of its schedule's stage
// matrices (bootstrap's checkSchedule holds them to the bootstrapper's).
func stageDiagonals(res *ckksir.Result) int {
	total := 0
	for _, op := range bootstrap.Schedule(*res.Boot, res.Literal.LogN, res.TargetLevel) {
		total += op.Split.Masks
	}
	return total
}

// TestEncodeOnceBitIdentical: whether a plaintext comes out of the table
// (warm), goes into it (cold) or is encoded on every use (zero cap), the
// output ciphertext is the same, byte for byte.
func TestEncodeOnceBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		slow  bool
		build func(t *testing.T) (res *ckksir.Result, stride int)
	}{
		{"linear512x10", false, func(t *testing.T) (*ckksir.Result, int) {
			m, err := onnx.BuildLinear(512, 10, 42)
			return compile(t, m, err, testConfig(ckksir.BootstrapAuto)), 1
		}},
		{"resnet8", true, func(t *testing.T) (*ckksir.Result, int) {
			m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 8, InputSize: 8, BaseChannels: 4})
			cfg := testConfig(ckksir.BootstrapAuto)
			cfg.CKKS.Boot = bootstrap.Parameters{K: 24, DoubleAngle: 4}
			return compile(t, m, err, cfg), 1
		}},
		{"lane-batched", false, func(t *testing.T) (*ckksir.Result, int) {
			m, err := onnx.BuildLinear(64, 10, 42)
			cfg := testConfig(ckksir.BootstrapAuto)
			cfg.CKKS.ForceLogN = 9 // four times the slots the model fills
			res := compile(t, m, err, cfg)
			stride := batch.Stride(1<<(res.Literal.LogN-1), vecLen(res))
			if stride < 2 {
				t.Fatalf("no spare lanes to batch into (stride %d)", stride)
			}
			bmod, err := batch.Transform(res.Module, stride)
			if err != nil {
				t.Fatal(err)
			}
			lanes := *res
			lanes.Module = bmod
			return &lanes, stride
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceDetector) {
				t.Skip("seven bootstraps per run, on one goroutine")
			}
			res, stride := tc.build(t)
			n := vecLen(res) / stride
			m, client, err := New(res, n, ring.SeedFromInt(71))
			if err != nil {
				t.Fatal(err)
			}
			if stride > 1 {
				// The same seed draws the same secret key, in the lane layout.
				lay := Layout{VecLen: n, Level: res.InputLevel, Scale: res.InputScale, Stride: stride}
				if client, err = NewClient(m.Params, m.enc, lay, ring.SeedFromInt(71)); err != nil {
					t.Fatal(err)
				}
			}
			ct, err := client.Encrypt(randomInput(n, 5))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			run := func(m *Machine, p *Program) []byte {
				t.Helper()
				out, err := m.run(ctx, p, ct)
				if err != nil {
					t.Fatal(err)
				}
				return wire(t, out)
			}

			prog, err := Prepare(res.Module)
			if err != nil {
				t.Fatal(err)
			}
			encodes := 0
			for _, in := range prog.code {
				if in.op == opEncode {
					encodes++
				}
			}
			cold := run(m, prog)
			if st := prog.TableStats(); st.Entries != encodes || st.Misses != uint64(encodes) || st.Hits != 0 {
				t.Fatalf("after the cold run the table reads %+v, want %d entries, all missed once", st, encodes)
			}
			warm := run(m, prog)
			if st := prog.TableStats(); st.Entries != encodes || st.Misses != uint64(encodes) || st.Hits != uint64(encodes) {
				t.Fatalf("after the warm run the table reads %+v, want %d entries, all hit once", st, encodes)
			}

			every, err := prepare(res.Module.Main())
			if err != nil {
				t.Fatal(err)
			}
			every.tableCap = 0
			m0 := NewMachine(&Shared{Params: m.Params, Enc: m.enc}, m.Eval.Keys())
			if m.Boot != nil {
				m0.Boot = m.Boot.WithTableCap(0)
			}
			zero := run(m0, every)
			if st := every.TableStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != uint64(encodes) {
				t.Fatalf("zero-cap table reads %+v, want nothing held and %d misses", st, encodes)
			}
			if m.Boot != nil {
				// Every bootstrap refreshes to the same level at the same
				// scales, so the Q∪P diagonal tables hold each stage's
				// diagonals once, whatever the number of bootstraps and runs.
				diags, boots := uint64(stageDiagonals(res)), uint64(res.Bootstraps)
				if st := m0.Boot.TableStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != diags*boots {
					t.Fatalf("zero-cap bootstrap table reads %+v, want nothing held and %d misses", st, diags*boots)
				}
				if st := m.Boot.TableStats(); uint64(st.Entries) != diags || st.Misses != diags || st.Hits != diags*(2*boots-1) {
					t.Fatalf("bootstrap table reads %+v after two runs of %d bootstraps, want %d stage diagonals encoded once", st, boots, diags)
				}
			}
			if !bytes.Equal(cold, warm) || !bytes.Equal(cold, zero) {
				t.Fatal("cold, warm and encode-every-time runs produced different ciphertexts")
			}
		})
	}
}

// TestOverCapEncodesPerUse: a table with room for only some of the
// weights keeps those, encodes the rest on every run, and the output
// does not change.
func TestOverCapEncodesPerUse(t *testing.T) {
	res, _ := compileLinear(t)
	m, client, err := New(res, vecLen(res), ring.SeedFromInt(72))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(randomInput(vecLen(res), 6))
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Run(res.Module, ct)
	if err != nil {
		t.Fatal(err)
	}

	p, err := prepare(res.Module.Main())
	if err != nil {
		t.Fatal(err)
	}
	var encodes []instr
	for _, in := range p.code {
		if in.op == opEncode {
			encodes = append(encodes, in)
		}
	}
	const kept = 3
	if len(encodes) <= kept {
		t.Fatalf("program has only %d encodes", len(encodes))
	}
	p.tableCap = 0
	for _, in := range encodes[:kept] {
		p.tableCap += int64(in.k+1) * int64(m.Params.N()) * 8
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		out, err := m.run(context.Background(), p, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire(t, out), wire(t, full)) {
			t.Fatalf("run %d under a partial table diverged", i)
		}
	}
	st := p.TableStats()
	if st.Entries < 1 || st.Entries > kept || st.Bytes > p.tableCap {
		t.Fatalf("table holds %d entries in %d bytes under a cap of %d", st.Entries, st.Bytes, p.tableCap)
	}
	over := len(encodes) - st.Entries
	if want := uint64(st.Entries + runs*over); st.Misses != want {
		t.Fatalf("%d misses, want %d: %d first touches plus %d over-cap encodes on each of %d runs",
			st.Misses, want, st.Entries, over, runs)
	}
	if want := uint64((runs - 1) * st.Entries); st.Hits != want {
		t.Fatalf("%d hits, want %d", st.Hits, want)
	}
}

// TestSharedProgramAndBootstrapper: machines holding different clients'
// keys share one Program and one Bootstrapper from the first touch of
// their tables. Each must get what it would have got alone (run with
// -race).
func TestSharedProgramAndBootstrapper(t *testing.T) {
	res := tinyBootstrapping(t)
	n := vecLen(res)
	lead, _, err := New(res, n, ring.SeedFromInt(80))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	type party struct {
		m    *Machine
		ct   *ckks.Ciphertext
		want []byte
	}
	parties := make([]party, clients)
	for i := range parties {
		own, client, err := New(res, n, ring.SeedFromInt(uint64(81+i)))
		if err != nil {
			t.Fatal(err)
		}
		p := &parties[i]
		if p.ct, err = client.Encrypt(randomInput(n, uint64(i))); err != nil {
			t.Fatal(err)
		}
		// Alone: a private program, a private bootstrapper, nothing kept.
		solo, err := prepare(res.Module.Main())
		if err != nil {
			t.Fatal(err)
		}
		solo.tableCap = 0
		own.Boot = own.Boot.WithTableCap(0)
		out, err := own.run(context.Background(), solo, p.ct)
		if err != nil {
			t.Fatal(err)
		}
		p.want = wire(t, out)
		p.m = NewMachine(shared(lead), own.Eval.Keys())
	}

	var wg sync.WaitGroup
	for i := range parties {
		wg.Add(1)
		go func(p *party) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				out, err := p.m.Run(res.Module, p.ct)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := out.MarshalBinary()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, p.want) {
					t.Errorf("a machine sharing the tables diverged from its solo run (rep %d)", rep)
				}
			}
		}(&parties[i])
	}
	wg.Wait()

	prog, err := Prepare(res.Module)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.TableStats()
	if st.Misses != uint64(st.Entries) {
		t.Fatalf("program table: %d misses for %d entries — a weight was encoded more than once", st.Misses, st.Entries)
	}
	if bs := lead.Boot.TableStats(); bs.Entries != stageDiagonals(res) || bs.Misses != uint64(bs.Entries) || bs.Hits == 0 {
		t.Fatalf("bootstrap table reads %+v, want the %d stage diagonals — one was encoded more than once, or never reused", bs, stageDiagonals(res))
	}
}

// TestResumeUsesTable: a machine restored from a checkpoint finds the
// plaintexts it needs in the shared table (or encodes them, on a fresh
// program) and finishes bit-identically to the uninterrupted run.
func TestResumeUsesTable(t *testing.T) {
	res := tinyBootstrapping(t)
	n := vecLen(res)
	m, client, err := New(res, n, ring.SeedFromInt(90))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := client.Encrypt(randomInput(n, 9))
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	m.Ckpt = &CheckpointPolicy{EveryN: 1, Sink: func(s []byte) error {
		snaps = append(snaps, bytes.Clone(s))
		return nil
	}}
	want, err := m.Run(res.Module, ct)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Prepare(res.Module)
	if err != nil {
		t.Fatal(err)
	}
	// Stop right after an encode, so the resumed run starts at the
	// consumer of a plaintext register the snapshot does not carry.
	afterEncode := -1
	for idx, in := range prog.code {
		if in.op == opEncode && idx > len(prog.code)/2 {
			afterEncode = idx
			break
		}
	}
	if afterEncode < 0 {
		t.Fatal("no encode in the second half of the program")
	}
	misses := prog.TableStats().Misses

	m2 := NewMachine(shared(m), m.Eval.Keys())
	if err := m2.Restore(res.Module, snaps[afterEncode]); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Run(res.Module, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire(t, got), wire(t, want)) {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
	if now := prog.TableStats().Misses; now != misses {
		t.Fatalf("resumed run encoded %d plaintexts the table already held", now-misses)
	}

	// The same snapshot against a program whose table is empty and keeps
	// nothing: every plaintext the tail needs is encoded on demand.
	fresh, err := prepare(res.Module.Main())
	if err != nil {
		t.Fatal(err)
	}
	fresh.tableCap = 0
	m3 := NewMachine(shared(m), m.Eval.Keys())
	if err := m3.Restore(res.Module, snaps[afterEncode]); err != nil {
		t.Fatal(err)
	}
	got, err = m3.run(context.Background(), fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire(t, got), wire(t, want)) {
		t.Fatal("resumed run on an empty table diverged from the uninterrupted one")
	}
}

// TestProgramUnderOtherParameters: a program whose table was filled
// under one parameter set must not serve those plaintexts to a machine
// built for another ring.
func TestProgramUnderOtherParameters(t *testing.T) {
	res, _ := compileLinear(t)
	n := vecLen(res)
	m, client, err := New(res, n, ring.SeedFromInt(95))
	if err != nil {
		t.Fatal(err)
	}
	in := randomInput(n, 3)
	ct, err := client.Encrypt(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(res.Module, ct); err != nil {
		t.Fatal(err)
	}
	prog, err := Prepare(res.Module)
	if err != nil {
		t.Fatal(err)
	}
	first := prog.weights.Load()

	// Same module, same chain of prime sizes, twice the ring degree:
	// another ring. Alone, this machine computes the reference answer.
	other := *res
	other.Literal.LogN++
	m2, client2, err := New(&other, n, ring.SeedFromInt(96))
	if err != nil {
		t.Fatal(err)
	}
	if first.Fits(m2.Params) {
		t.Fatal("test parameters do not differ")
	}
	ct2, err := client2.Encrypt(in)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := prepare(res.Module.Main())
	if err != nil {
		t.Fatal(err)
	}
	want, err := m2.run(context.Background(), solo, ct2)
	if err != nil {
		t.Fatal(err)
	}

	got, err := m2.Run(res.Module, ct2)
	if err != nil {
		t.Fatalf("run under other parameters: %v", err)
	}
	if !bytes.Equal(wire(t, got), wire(t, want)) {
		t.Fatal("run under other parameters was served plaintexts of the first ring")
	}
	if now := prog.weights.Load(); now == first || !now.Fits(m2.Params) {
		t.Fatal("the table was not re-made for the new parameters")
	}
}

// TestSeededKeysReproducible: the same seed gives the same evaluation
// keys, byte for byte, also for a bootstrapping program, whose rotation
// list is collected through maps. Go reorders a map on every range, so
// any order dependence shows within one process.
func TestSeededKeysReproducible(t *testing.T) {
	res := tinyBootstrapping(t)
	seed := [32]byte{1, 2, 3}
	var first []byte
	for i := 0; i < 4; i++ {
		m, _, err := New(res, vecLen(res), &seed)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := m.Eval.Keys().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = keys
		} else if !bytes.Equal(keys, first) {
			t.Fatalf("seeded vm.New #%d produced a different Galois key set", i)
		}
	}
}
