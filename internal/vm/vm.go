// Package vm executes compiled CKKS IR modules against the real RNS-CKKS
// runtime: it instantiates the selected parameters, generates exactly the
// keys the compiler's analysis requested, runs the instruction stream on
// encrypted data, and asserts at every step that the runtime's level and
// scale match what the compiler tracked — a strong end-to-end check of
// the whole lowering pipeline.
//
// What depends only on the model and the parameters is worked out once
// per module and shared by every machine that runs it (Program); a
// Machine adds one session's keys and one run's registers.
package vm

import (
	"context"
	"fmt"
	"math"
	"time"

	"antace/internal/batch"
	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/fault"
	"antace/internal/ir"
	"antace/internal/obs"
)

// Machine is the server side: parameters, evaluation keys and the
// bootstrapper. It never sees the secret key.
type Machine struct {
	Params *ckks.Parameters
	Eval   *ckks.Evaluator
	Boot   *bootstrap.Bootstrapper
	enc    *ckks.Encoder
	// KeyCount reports the number of Galois keys generated (the paper's
	// Figure 7 memory analysis).
	KeyCount int
	// Ckpt, when set, makes RunCtx emit resumable snapshots of the
	// execution on the policy's cadence (see CheckpointPolicy).
	Ckpt *CheckpointPolicy
	// StepDelay, when positive, sleeps between instructions. It exists
	// for chaos and durability testing — stretching a fast test program
	// into one long enough to crash mid-flight deterministically — and
	// must stay zero in production.
	StepDelay time.Duration
	// Prof, when set, receives one Record per executed instruction and
	// one Step per produced ciphertext (the level/scale trajectory of
	// the paper's Figure 6). Instruction timing starts before the
	// StepDelay sleep, so summed op times track wall-clock evaluation
	// time even in stretched chaos tests.
	Prof *obs.RunProfile

	// st holds execution state restored by Restore until the next
	// RunCtx consumes it.
	st *execState
}

// Client is the paper's ANT-ACE-generated encryptor/decryptor pair: it
// owns the secret key and the packing configuration.
type Client struct {
	Params     *ckks.Parameters
	Encoder    *ckks.Encoder
	Encryptor  *ckks.Encryptor
	Decryptor  *ckks.Decryptor
	InputLevel int
	InputScale float64
	VecLen     int
	// Stride > 1 targets a lane-transformed module (cross-request slot
	// batching): Encrypt places the logical vector strided into lane 0
	// and DecryptLane extracts one lane of a shared result. Zero or one
	// is the plain solo layout.
	Stride int
}

// New builds the machine and client for a compiled program. A nil seed
// draws fresh randomness.
func New(res *ckksir.Result, vecLen int, seed *[32]byte) (*Machine, *Client, error) {
	params, err := ckks.NewParameters(res.Literal)
	if err != nil {
		return nil, nil, err
	}
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)

	var bt *bootstrap.Bootstrapper
	rotations := append([]int(nil), res.Rotations...)
	needConj := false
	if res.Boot != nil {
		bt, err = bootstrap.NewBootstrapper(params, *res.Boot, res.InputScale)
		if err != nil {
			return nil, nil, err
		}
		rotations = append(rotations, bt.RequiredRotations()...)
		needConj = true
	}
	keys := &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(rotations, needConj, sk),
	}
	m := &Machine{
		Params:   params,
		Eval:     ckks.NewEvaluator(params, keys),
		Boot:     bt,
		enc:      ckks.NewEncoder(params),
		KeyCount: len(keys.Galois),
	}
	c := &Client{
		Params:     params,
		Encoder:    ckks.NewEncoder(params),
		Encryptor:  ckks.NewEncryptor(params, pk),
		Decryptor:  ckks.NewDecryptor(params, sk),
		InputLevel: res.InputLevel,
		InputScale: res.InputScale,
		VecLen:     vecLen,
	}
	return m, c, nil
}

// NewMachine assembles a server machine from shared, read-only parts and
// one client's evaluation keys: the serving layer holds a single set of
// parameters, one encoder and (when the program bootstraps) one
// bootstrapper, all safe to share across machines, while the Evaluator is
// created fresh here because it is per-goroutine. The keys typically
// arrive over the wire (ckks.EvaluationKeySet.UnmarshalBinary) rather
// than from a local KeyGenerator — the server never sees a secret key.
func NewMachine(params *ckks.Parameters, keys *ckks.EvaluationKeySet, bt *bootstrap.Bootstrapper, enc *ckks.Encoder) *Machine {
	if enc == nil {
		enc = ckks.NewEncoder(params)
	}
	return &Machine{
		Params:   params,
		Eval:     ckks.NewEvaluator(params, keys),
		Boot:     bt,
		enc:      enc,
		KeyCount: len(keys.Galois),
	}
}

// Encrypt packs and encrypts a slot vector at the compiled input level
// and scale.
func (c *Client) Encrypt(values []float64) (*ckks.Ciphertext, error) {
	if len(values) != c.VecLen {
		return nil, fmt.Errorf("vm: input length %d, compiled for %d", len(values), c.VecLen)
	}
	if c.Stride > 1 {
		exp, err := batch.ExpandLane(values, 0, c.Stride)
		if err != nil {
			return nil, err
		}
		values = exp
	}
	pt, err := c.Encoder.EncodeReal(values, c.InputLevel, c.InputScale)
	if err != nil {
		return nil, err
	}
	return c.Encryptor.Encrypt(pt), nil
}

// Decrypt decrypts and decodes back to the slot vector (lane 0 when the
// client targets a lane-transformed module).
func (c *Client) Decrypt(ct *ckks.Ciphertext) []float64 {
	return c.DecryptLane(ct, 0)
}

// DecryptLane decrypts a shared batched result and returns the logical
// vector riding the given lane. With Stride <= 1 only lane 0 exists and
// the decode is the plain solo layout.
func (c *Client) DecryptLane(ct *ckks.Ciphertext, lane int) []float64 {
	if c.Stride <= 1 {
		return c.Encoder.DecodeReal(c.Decryptor.Decrypt(ct), c.VecLen)
	}
	wide := c.Encoder.DecodeReal(c.Decryptor.Decrypt(ct), c.VecLen*c.Stride)
	out, err := batch.ExtractLane(wide, lane, c.Stride)
	if err != nil {
		panic(fmt.Sprintf("vm: lane %d out of range for stride %d", lane, c.Stride))
	}
	return out
}

// Run executes the module's main function on an encrypted input.
func (m *Machine) Run(mod *ir.Module, input *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return m.RunCtx(context.Background(), mod, input)
}

// RunCtx executes the module's main function on an encrypted input,
// checking ctx between instructions: when a serving deadline expires the
// run aborts with ctx.Err() instead of completing doomed work. One
// instruction is the abort granularity — a bootstrap, the longest single
// op, still runs to completion once started.
//
// RunCtx is a panic-isolation boundary: a panic anywhere below it — the
// evaluator, the ring engine, a par worker — is recovered, converted to
// a typed *fault.RuntimeError (code EVAL_PANIC, stack attached), and
// returned like any other evaluation failure. Because the panic unwound
// through pooled scratch in an unknown state, the recovery also discards
// the parameter set's scratch pools before returning, so no suspect
// buffer is ever recycled into a later evaluation.
// A restored snapshot (see Restore) makes RunCtx continue from the
// recorded program counter instead of instruction 0; the resumed run
// produces bit-identical output to one that never paused, because
// every CKKS operation is deterministic given the same keys and
// registers. When m.Ckpt is set, RunCtx emits resumable snapshots on
// the policy's cadence between instructions.
//
// Rotations of one value share one key-switch decomposition
// (ckksir.RotationGroups): the run makes it at the group's first
// rotation it executes and releases it after the last, or on whatever
// path leaves the run. It is not part of a snapshot; a resumed run makes
// it again, and the rotation's bytes are the same either way. A register
// goes back to the ring pool when the instruction that reads it last is
// done, except the input's and the result's: the caller owns those.
func (m *Machine) RunCtx(ctx context.Context, mod *ir.Module, input *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	prog, err := Prepare(mod)
	if err != nil {
		m.st = nil
		return nil, err
	}
	return m.run(ctx, prog, input)
}

// run executes a prepared program; RunCtx documents the contract.
func (m *Machine) run(ctx context.Context, prog *Program, input *ckks.Ciphertext) (out *ckks.Ciphertext, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m.Params.DiscardScratch()
			out, err = nil, fault.FromPanic("vm.RunCtx", rec)
		}
	}()
	ev := m.Eval
	// Attribute fused key-switch kernel time (decomp_modup, hw_modmuladd,
	// mod_down) to the run profile alongside the per-instruction records.
	// The observer is cleared on exit so a profile from one run never
	// receives kernel events from a later one.
	if m.Prof != nil {
		ev.KernelObserver = m.Prof.RecordKernel
		defer func() { ev.KernelObserver = nil }()
	}

	// Adopt restored state, or start fresh. The state is popped off the
	// machine either way: after a failure it must not leak into a later
	// run.
	st := m.st
	m.st = nil
	if st == nil {
		if input == nil {
			return nil, fmt.Errorf("vm: nil input and no restored snapshot")
		}
		if err := m.check(prog.param, input); err != nil {
			return nil, fmt.Errorf("vm: input: %w", err)
		}
		st = newExecState(prog)
		st.cts[prog.pslot] = input
	}
	cts, pts := st.cts, st.pts
	weights := prog.table(m.Params)
	// decomps holds the live shared decompositions by source slot. This
	// defer runs before the panic boundary's, so the scratch goes back to
	// the pool before a recovered panic discards it.
	decomps := map[int]*ckks.Decomposition{}
	defer func() {
		for _, h := range decomps {
			h.Release()
		}
	}()

	sinceCkpt := 0
	lastCkpt := time.Now()
	for idx := st.pc; idx < len(prog.code); idx++ {
		in := &prog.code[idx]
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("vm: aborted before instr %d (%s): %w", idx, in.name, err)
		}
		instrStart := time.Now()
		if m.StepDelay > 0 {
			time.Sleep(m.StepDelay)
		}
		// Deterministic chaos hooks: an armed vm.instr.err fails this
		// instruction with a returned error; vm.instr.panic crashes it,
		// exercising the recover boundary above.
		fault.InjectPanic(fault.VMInstrPanic)
		if ferr := fault.Inject(fault.VMInstrErr); ferr != nil {
			return nil, fmt.Errorf("vm: instr %d (%s): %w", idx, in.name, ferr)
		}
		var err error
		// An encode the weight table already holds did no work, so it
		// leaves no sample: the profile shows encoding as what it is, a
		// cost paid on first touch.
		profiled := true
		switch in.op {
		case opEncode:
			var hit bool
			pts[in.dst], hit, err = m.encode(weights, idx, in)
			profiled = !hit
		case opAdd:
			cts[in.dst], err = ev.Add(cts[in.a], cts[in.b])
		case opAddPlain, opMulPlain:
			pt := pts[in.b]
			if pt == nil {
				// A resumed run starts past the encode that made this operand.
				if pt, _, err = m.encode(weights, in.k, &prog.code[in.k]); err != nil {
					break
				}
			}
			if in.op == opMulPlain {
				cts[in.dst] = ev.MulPlain(cts[in.a], pt)
			} else {
				cts[in.dst], err = ev.AddPlain(cts[in.a], pt)
			}
		case opMul:
			cts[in.dst], err = ev.Mul(cts[in.a], cts[in.b])
		case opRelin:
			cts[in.dst], err = ev.Relinearize(cts[in.a])
		case opRescale:
			cts[in.dst], err = ev.Rescale(cts[in.a])
		case opRotate:
			cts[in.dst], err = m.rotate(decomps, cts[in.a], in)
		case opModSwitch:
			ct := cts[in.a].CopyNew()
			err = ev.DropLevel(ct, in.k)
			cts[in.dst] = ct
		case opMulConst:
			cts[in.dst] = ev.MulByConst(cts[in.a], in.x, in.y)
		case opPoly:
			cts[in.dst], err = ev.EvaluatePolynomial(cts[in.a], in.plan, in.x)
		case opBootstrap:
			if m.Boot == nil {
				return nil, fmt.Errorf("vm: program contains bootstrap but no bootstrapper configured")
			}
			cts[in.dst], err = m.Boot.Bootstrap(ev, cts[in.a], in.k)
		case opReinterpret:
			ct := cts[in.a].CopyNew()
			ct.Scale /= in.x
			cts[in.dst] = ct
		}
		if err != nil {
			return nil, fmt.Errorf("vm: instr %d (%s): %w", idx, in.name, err)
		}
		if m.Prof != nil && profiled {
			m.Prof.Record(in.name, time.Since(instrStart))
		}
		if ct := cts[in.dst]; ct != nil {
			if err := m.check(in.res, ct); err != nil {
				return nil, fmt.Errorf("vm: instr %d (%s): %w", idx, in.name, err)
			}
			if m.Prof != nil {
				m.Prof.Step(idx, in.name, ct.Level(), ct.Scale)
			}
		}
		for _, s := range in.drop {
			if ct := cts[s]; ct != nil && s != prog.pslot {
				ct.Release(m.Params)
			}
			cts[s], pts[s] = nil, nil
		}
		st.pc = idx + 1
		if m.Ckpt.active() {
			sinceCkpt++
			if (m.Ckpt.EveryN > 0 && sinceCkpt >= m.Ckpt.EveryN) ||
				(m.Ckpt.Every > 0 && time.Since(lastCkpt) >= m.Ckpt.Every) {
				snap, serr := marshalState(prog, st)
				if serr == nil {
					// Sink errors are deliberately swallowed: losing a
					// checkpoint only costs resume granularity, never
					// the evaluation; the sink counts its own failures.
					_ = m.Ckpt.Sink(snap)
				}
				sinceCkpt = 0
				lastCkpt = time.Now()
			}
		}
	}
	if out = cts[prog.ret]; out == nil {
		return nil, fmt.Errorf("vm: return value never computed")
	}
	return out, nil
}

// rotate runs rotation in on ct from the decomposition its group shares,
// making it if no earlier rotation of the group did in this run, and
// keeping it in decomps only while a later rotation of the group needs it.
func (m *Machine) rotate(decomps map[int]*ckks.Decomposition, ct *ckks.Ciphertext, in *instr) (*ckks.Ciphertext, error) {
	h := decomps[in.a]
	if h == nil {
		var err error
		if h, err = m.Eval.Decompose(ct); err != nil {
			return nil, err
		}
		decomps[in.a] = h
	}
	if !in.keep {
		defer func() {
			h.Release()
			delete(decomps, in.a)
		}()
	}
	return m.Eval.RotateHoisted(ct, h, in.k)
}

// encode produces the plaintext of encode instruction idx, from the
// program's weight table when it is there.
func (m *Machine) encode(weights *ckks.PlaintextMemo, idx int, in *instr) (*ckks.Plaintext, bool, error) {
	return weights.Get(ckks.PlaintextKey{Const: idx, Level: in.k, Scale: in.x}, func() (*ckks.Plaintext, error) {
		return m.enc.EncodeReal(in.vec, in.k, in.x)
	})
}

// check asserts the runtime state matches the compiler's tracking.
func (m *Machine) check(v *ir.Value, ct *ckks.Ciphertext) error {
	if v.Type.Kind == ir.KindCipher3 {
		return nil // transient degree-2 value; level/scale checked after relin
	}
	if ct.Level() != v.Level {
		return fmt.Errorf("level mismatch: runtime %d, compiler %d", ct.Level(), v.Level)
	}
	if v.Scale != 0 && !ScaleClose(ct.Scale, v.Scale) {
		return fmt.Errorf("scale mismatch: runtime %g, compiler %g", ct.Scale, v.Scale)
	}
	return nil
}

// ScaleClose reports whether a runtime scale matches the compiler's
// (want, nonzero) within the runtime's tolerance: 1e-6 relative.
func ScaleClose(got, want float64) bool {
	return math.Abs(got/want-1) <= 1e-6
}
