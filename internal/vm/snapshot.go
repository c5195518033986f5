package vm

import (
	"encoding/binary"
	"fmt"
	"time"

	"antace/internal/ckks"
	"antace/internal/ir"
)

// Execution snapshots make a long-running encrypted inference
// resumable across a process crash: a snapshot is the program counter
// plus every live ciphertext register, serialized with the existing
// ckks wire format. Plaintext registers are deliberately NOT included
// — they are all produced by ckks.encode of compile-time constants
// (model weights), so a resumed run takes the ones it still needs from
// the program's weight table, which keeps snapshots proportional to the
// handful of live ciphertexts instead of the whole model.
//
// A snapshot embeds a fingerprint of the instruction stream it was
// taken against; Restore refuses a snapshot from a different program,
// so a daemon recompiled against a new model cannot resume state whose
// register numbering no longer matches.

// CheckpointPolicy makes RunCtx emit snapshots while it executes:
// after every EveryN instructions, or whenever Every has elapsed since
// the last snapshot, whichever fires first (either may be zero to
// disable that trigger). Sink receives the serialized snapshot; a Sink
// error does not abort the evaluation — checkpointing is best effort,
// and the sink owns counting its own failures.
type CheckpointPolicy struct {
	EveryN int
	Every  time.Duration
	Sink   func(snap []byte) error
}

func (p *CheckpointPolicy) active() bool {
	return p != nil && p.Sink != nil && (p.EveryN > 0 || p.Every > 0)
}

// execState is a paused execution: the index of the next instruction
// and the register files, indexed by the program's slots. A run drops a
// register at its last use, so the non-nil ciphertext registers are
// exactly the live ones. It lives on the Machine only between Restore
// and the RunCtx call that consumes it.
type execState struct {
	pc  int
	cts []*ckks.Ciphertext
	pts []*ckks.Plaintext
}

func newExecState(p *Program) *execState {
	return &execState{
		cts: make([]*ckks.Ciphertext, len(p.ids)),
		pts: make([]*ckks.Plaintext, len(p.ids)),
	}
}

const snapMagic = "ACEVMS1\n"

// Fingerprint is ir.Fingerprint, the hash snapshots are bound to their
// program by (the repository's benchmark reads it under this name).
func Fingerprint(f *ir.Func) uint64 { return ir.Fingerprint(f) }

// marshalState serializes a paused execution: magic, program
// fingerprint, pc, then each live ciphertext register as (value ID,
// length-prefixed ckks wire bytes), in ascending value ID — equal states
// give equal bytes.
func marshalState(p *Program, st *execState) ([]byte, error) {
	live := 0
	for _, ct := range st.cts {
		if ct != nil {
			live++
		}
	}
	buf := []byte(snapMagic)
	buf = binary.LittleEndian.AppendUint64(buf, p.fp)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.pc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(live))
	for s, ct := range st.cts {
		if ct == nil {
			continue
		}
		ctb, err := ct.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("vm: snapshot register %%v%d: %w", p.ids[s], err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ids[s]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ctb)))
		buf = append(buf, ctb...)
	}
	return buf, nil
}

// Snapshot serializes the machine's paused execution state (present
// between a Restore and the RunCtx that consumes it). Checkpoints
// during a run are produced internally by the CheckpointPolicy; this
// accessor exists for tests and tooling.
func (m *Machine) Snapshot(mod *ir.Module) ([]byte, error) {
	if m.st == nil {
		return nil, fmt.Errorf("vm: no paused execution to snapshot")
	}
	p, err := Prepare(mod)
	if err != nil {
		return nil, err
	}
	return marshalState(p, m.st)
}

// Restore primes the machine with a serialized snapshot; the next
// RunCtx call continues from the recorded program counter instead of
// instruction 0. It validates framing, the program fingerprint and
// every register's identity, returning an error — never panicking —
// on torn or corrupted input.
func (m *Machine) Restore(mod *ir.Module, data []byte) error {
	p, err := Prepare(mod)
	if err != nil {
		return err
	}
	if len(data) < len(snapMagic)+16 {
		return fmt.Errorf("vm: truncated snapshot (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("vm: bad snapshot magic")
	}
	rest := data[len(snapMagic):]
	fp := binary.LittleEndian.Uint64(rest)
	if fp != p.fp {
		return fmt.Errorf("vm: snapshot fingerprint %016x does not match program %016x", fp, p.fp)
	}
	pc := int(binary.LittleEndian.Uint32(rest[8:]))
	count := int(binary.LittleEndian.Uint32(rest[12:]))
	rest = rest[16:]
	if pc < 0 || pc > len(p.code) {
		return fmt.Errorf("vm: snapshot pc %d outside program of %d instructions", pc, len(p.code))
	}
	// One frame per register needs at least its 8-byte header; a forged
	// count cannot force a large allocation.
	if count < 0 || count > len(rest)/8+1 {
		return fmt.Errorf("vm: implausible snapshot register count %d for %d bytes", count, len(rest))
	}

	st := newExecState(p)
	st.pc = pc
	for i := 0; i < count; i++ {
		if len(rest) < 8 {
			return fmt.Errorf("vm: truncated snapshot register %d", i)
		}
		id := int(binary.LittleEndian.Uint32(rest))
		n := int(binary.LittleEndian.Uint32(rest[4:]))
		rest = rest[8:]
		if n < 0 || n > len(rest) {
			return fmt.Errorf("vm: snapshot register %d claims %d bytes, %d remain", i, n, len(rest))
		}
		slot, ok := p.slotOf(id)
		if !ok {
			return fmt.Errorf("vm: snapshot register %%v%d not defined by the program", id)
		}
		if st.cts[slot] != nil {
			return fmt.Errorf("vm: duplicate snapshot register %%v%d", id)
		}
		ct := &ckks.Ciphertext{}
		if err := ct.UnmarshalBinary(rest[:n]); err != nil {
			return fmt.Errorf("vm: snapshot register %%v%d: %w", id, err)
		}
		st.cts[slot] = ct
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("vm: %d trailing snapshot bytes", len(rest))
	}
	m.st = st
	return nil
}
