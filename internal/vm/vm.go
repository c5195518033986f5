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

// Shared is what every machine running one program shares: the
// parameters, one encoder, the bootstrapper when the program bootstraps,
// and the key set a session must supply. All of it is read-only.
type Shared struct {
	Params *ckks.Parameters
	Enc    *ckks.Encoder
	Boot   *bootstrap.Bootstrapper
	Keys   KeySet
}

// KeySet names the Galois keys a program's evaluation needs; the
// relinearisation key is always needed on top. Keys are generated in
// Rotations order, then conjugation.
type KeySet struct {
	Rotations   []int
	Conjugation bool
}

// NewShared builds the shared parts of res's machines. The key set is
// derived from the module res carries, so a caller that runs a
// transformed module passes a Result holding that module: the program's
// rotation keys ascending (ckksir.RotationKeys), then the bootstrapper's,
// then conjugation when the program bootstraps. Every key spans the
// whole chain; RotationKeys' levels are not used yet.
func NewShared(res *ckksir.Result) (*Shared, error) {
	params, err := ckks.NewParameters(res.Literal)
	if err != nil {
		return nil, err
	}
	sh := &Shared{Params: params, Enc: ckks.NewEncoder(params)}
	for _, k := range ckksir.RotationKeys(res.Module.Main()) {
		sh.Keys.Rotations = append(sh.Keys.Rotations, k.K)
	}
	if res.Boot != nil {
		if sh.Boot, err = bootstrap.NewBootstrapper(params, *res.Boot, res.InputScale); err != nil {
			return nil, err
		}
		sh.Keys.Rotations = append(sh.Keys.Rotations, sh.Boot.RequiredRotations()...)
		sh.Keys.Conjugation = true
	}
	return sh, nil
}

// Check reports what an uploaded key bundle lacks of the key set, so a
// server refuses it at registration rather than failing mid-request.
func (sh *Shared) Check(keys *ckks.EvaluationKeySet) error {
	if keys.Rlk == nil {
		return fmt.Errorf("bundle is missing the relinearization key")
	}
	var missing []uint64
	need := func(gal uint64) {
		if _, err := keys.GaloisKeyFor(gal); err != nil {
			missing = append(missing, gal)
		}
	}
	rQ := sh.Params.RingQ()
	for _, k := range sh.Keys.Rotations {
		need(rQ.GaloisElementForRotation(k))
	}
	if sh.Keys.Conjugation {
		need(rQ.GaloisElementForConjugation())
	}
	if len(missing) > 0 {
		return fmt.Errorf("bundle is missing %d Galois keys, for elements %v", len(missing), missing[:min(len(missing), 8)])
	}
	return nil
}

// New builds the machine and client for a compiled program. A nil seed
// draws fresh randomness. Keys are generated in the order sk, pk,
// relinearisation, then the key set's (NewShared).
func New(res *ckksir.Result, vecLen int, seed *[32]byte) (*Machine, *Client, error) {
	sh, err := NewShared(res)
	if err != nil {
		return nil, nil, err
	}
	c, err := NewClient(sh.Params, sh.Enc, Layout{VecLen: vecLen, Level: res.InputLevel, Scale: res.InputScale}, seed)
	if err != nil {
		return nil, nil, err
	}
	return NewMachine(sh, c.Keys(sh.Keys)), c, nil
}

// NewMachine assembles a machine from a program's shared parts and one
// session's evaluation keys. The Evaluator is created fresh here because
// it is per-goroutine. On a server the keys arrive over the wire
// (ckks.EvaluationKeySet.UnmarshalBinary) rather than from a Client: the
// server never sees a secret key.
func NewMachine(sh *Shared, keys *ckks.EvaluationKeySet) *Machine {
	return &Machine{
		Params:   sh.Params,
		Eval:     ckks.NewEvaluator(sh.Params, keys),
		Boot:     sh.Boot,
		enc:      sh.Enc,
		KeyCount: len(keys.Galois),
	}
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
// the policy's cadence between instructions. A register goes back to the
// ring pool when the instruction that reads it last is done, except the
// input's and the result's: the caller owns those.
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
	// plain returns the plaintext encode instruction e made, encoding it
	// again from the table when a resumed run starts past that encode.
	plain := func(e int) (*ckks.Plaintext, error) {
		if pt := pts[prog.code[e].dst]; pt != nil {
			return pt, nil
		}
		pt, _, err := m.encode(weights, e, &prog.code[e])
		return pt, err
	}

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
			var pt *ckks.Plaintext
			if pt, err = plain(in.k); err != nil {
				break
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
			cts[in.dst], err = ev.Rotate(cts[in.a], in.k)
		case opLinear:
			terms := make([]ckks.BSGSTerm, len(in.masks))
			for i, e := range in.masks {
				terms[i] = ckks.BSGSTerm{Baby: in.babies[i], Giant: in.giants[i]}
				if terms[i].Mask, err = plain(e); err != nil {
					break
				}
			}
			if err == nil {
				cts[in.dst], err = ev.EvaluateBSGS(cts[in.a], terms)
			}
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

// encode produces the plaintext of encode instruction idx, from the
// program's weight table when it is there.
func (m *Machine) encode(weights *ckks.PlaintextMemo, idx int, in *instr) (*ckks.Plaintext, bool, error) {
	return weights.Get(ckks.PlaintextKey{Const: idx, Level: in.k, Scale: in.x, QP: in.qp}, func() (*ckks.Plaintext, error) {
		if in.qp {
			return m.enc.EncodeRealQP(in.vec, in.k, in.x)
		}
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
