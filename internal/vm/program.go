package vm

import (
	"fmt"
	"sort"
	"sync/atomic"

	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/poly"
)

// Program is a module's main function in the form the machine executes,
// holding everything that depends on the model and the parameters but
// not on a session's keys: instructions with their operands decoded,
// every value assigned a dense register slot, the last-use table that
// lets a run drop a register the moment it is dead, the snapshot
// fingerprint, and the table of encoded weight plaintexts. A Program is
// read-only apart from that table, which fills on first use, so one
// Program serves every machine, session and batch lane running the
// module.
type Program struct {
	code []instr
	// ids[s] is the IR value id held by slot s. Slots are assigned in
	// ascending id order, so walking the slots walks the ids in order.
	ids   []int
	param *ir.Value
	pslot int
	ret   int
	fp    uint64

	// weights memoises the encode instructions' plaintexts, keyed by
	// instruction index. It is made for the parameters of the first
	// machine to run the program and replaced, never reused, when a
	// machine with other parameters runs it.
	weights  atomic.Pointer[ckks.PlaintextMemo]
	tableCap int64
}

type opcode uint8

const (
	opEncode opcode = iota
	opAdd
	opAddPlain
	opMulPlain
	opMul
	opRelin
	opRescale
	opRotate
	opLinear
	opModSwitch
	opMulConst
	opPoly
	opBootstrap
	opReinterpret
)

// instr is one decoded instruction. k, x and y hold the integer and
// float attributes of whichever op it is (see decode); for the two ops
// with a plaintext operand, k is the index of the encode that makes it,
// and for a ckks.linear, masks holds those of its masks.
type instr struct {
	op   opcode
	name string    // IR opcode, for profiles and messages
	res  *ir.Value // the result as the compiler tracked it
	dst  int       // result slot
	a, b int       // operand slots
	// drop lists the slots whose last reader is this instruction; a result
	// nothing reads is dropped by the instruction that made it.
	drop []int

	k    int
	x, y float64
	vec  []float64
	qp   bool       // an encode over Q∪P (a linear layer's mask, baby ≠ 0)
	plan *poly.Plan // how a ckks.poly is evaluated, worked out once here

	babies, giants, masks []int // a ckks.linear's attributes and mask encodes
}

// Prepare returns the module's Program, building it on the first call.
// Later calls — and every Machine.Run of the module — get the same one.
// Preparing decodes and validates the instruction stream; it encodes
// nothing.
func Prepare(mod *ir.Module) (*Program, error) {
	type prepared struct {
		p   *Program
		err error
	}
	r := mod.Prepared(func() any {
		p, err := prepare(mod.Main())
		return prepared{p, err}
	}).(prepared)
	return r.p, r.err
}

func prepare(f *ir.Func) (*Program, error) {
	if f == nil {
		return nil, fmt.Errorf("vm: empty module")
	}
	if len(f.Params) != 1 {
		return nil, fmt.Errorf("vm: expected one parameter, have %d", len(f.Params))
	}
	p := &Program{param: f.Params[0], fp: Fingerprint(f), tableCap: ckks.PlaintextMemoCap}

	p.ids = append(p.ids, p.param.ID)
	for _, in := range f.Body {
		p.ids = append(p.ids, in.Result.ID)
	}
	sort.Ints(p.ids)
	for s := 1; s < len(p.ids); s++ {
		if p.ids[s] == p.ids[s-1] {
			return nil, fmt.Errorf("vm: value id %d defined twice", p.ids[s])
		}
	}
	slot := func(v *ir.Value) (int, error) {
		if s, ok := p.slotOf(v.ID); ok {
			return s, nil
		}
		return 0, fmt.Errorf("%s is not defined by the program", v)
	}

	var err error
	p.pslot, _ = slot(p.param)
	if f.Ret == nil {
		return nil, fmt.Errorf("vm: return value never computed")
	}
	if p.ret, err = slot(f.Ret); err != nil {
		return nil, fmt.Errorf("vm: return value: %w", err)
	}

	// lastUse[s] is the index of the last instruction reading slot s. A
	// value nothing reads dies where it is defined (the parameter, at
	// instruction 0); the return value never dies.
	lastUse := make([]int, len(p.ids))
	encodedAt := map[int]int{} // plaintext slot → index of the encode defining it
	// madeBy returns the index of the encode that made plaintext operand
	// v: over Q∪P for a linear layer's mask against a non-zero baby (qp),
	// over Q for the rest.
	madeBy := func(v *ir.Value, qp bool) (int, error) {
		s, err := slot(v)
		if err != nil {
			return 0, err
		}
		e, ok := encodedAt[s]
		if !ok || p.code[e].qp != qp {
			return 0, fmt.Errorf("plaintext operand %s is not the result of an earlier encode over the right basis", v)
		}
		return e, nil
	}
	p.code = make([]instr, len(f.Body))
	for idx, in := range f.Body {
		d, err := decode(in, slot)
		if err == nil && (d.op == opAddPlain || d.op == opMulPlain) {
			d.k, err = madeBy(in.Args[1], false)
		}
		for i := 1; err == nil && d.op == opLinear && i < len(in.Args); i++ {
			var e int
			e, err = madeBy(in.Args[i], d.babies[i-1] != 0)
			d.masks = append(d.masks, e)
		}
		if err != nil {
			return nil, fmt.Errorf("vm: instr %d (%s): %w", idx, in.Op, err)
		}
		if d.op == opEncode {
			encodedAt[d.dst] = idx
		}
		p.code[idx] = d
		lastUse[d.dst] = idx
		for _, a := range in.Args {
			if !a.IsConst() {
				s, _ := slot(a)
				lastUse[s] = idx
			}
		}
	}
	lastUse[p.ret] = len(f.Body)
	for s, idx := range lastUse {
		if idx < len(p.code) {
			p.code[idx].drop = append(p.code[idx].drop, s)
		}
	}
	return p, nil
}

// decode resolves one instruction's operands to slots and its
// attributes to typed fields.
func decode(in *ir.Instr, slot func(*ir.Value) (int, error)) (instr, error) {
	d := instr{name: in.Op, res: in.Result}
	var err error
	if d.dst, err = slot(in.Result); err != nil {
		return d, err
	}
	operands := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("have %d operands, want %d", len(in.Args), n)
		}
		if d.a, err = slot(in.Args[0]); err == nil && n == 2 {
			d.b, err = slot(in.Args[1])
		}
		return err
	}
	switch in.Op {
	case ckksir.OpEncode:
		d.op = opEncode
		if len(in.Args) != 1 {
			return d, fmt.Errorf("have %d operands, want 1", len(in.Args))
		}
		vec, ok := in.Args[0].Const.([]float64)
		if !ok {
			return d, fmt.Errorf("encode argument is not a vector constant")
		}
		d.vec, d.k, d.x = vec, in.AttrInt("level", 0), in.AttrFloat("scale", 0)
		d.qp = in.Attr("qp") == true
		return d, nil
	case ckksir.OpAdd:
		d.op = opAdd
		return d, operands(2)
	case ckksir.OpAddPlain:
		d.op = opAddPlain
		return d, operands(2)
	case ckksir.OpMulPlain:
		d.op = opMulPlain
		return d, operands(2)
	case ckksir.OpMul:
		d.op = opMul
		return d, operands(2)
	case ckksir.OpRelin:
		d.op = opRelin
	case ckksir.OpRescale:
		d.op = opRescale
	case ckksir.OpRotate:
		d.op, d.k = opRotate, in.AttrInt("k", 0)
	case ckksir.OpLinear:
		d.op = opLinear
		d.babies, d.giants = in.AttrInts("b"), in.AttrInts("g")
		if len(in.Args) < 2 || len(d.babies) != len(in.Args)-1 || len(d.giants) != len(d.babies) {
			return d, fmt.Errorf("%d masks with %d babies and %d giants", len(in.Args)-1, len(d.babies), len(d.giants))
		}
		d.a, err = slot(in.Args[0])
		return d, err
	case ckksir.OpModSwitch:
		d.op, d.k = opModSwitch, in.AttrInt("down", 0)
	case ckksir.OpMulConst:
		d.op, d.x, d.y = opMulConst, in.AttrFloat("c", 1), in.AttrFloat("const_scale", 1)
	case ckksir.OpPoly:
		p, err := poly.FromAttrs(in.Attrs)
		if err != nil {
			return d, err
		}
		d.plan = poly.NewPlan(p)
		d.op, d.x = opPoly, in.AttrFloat("target", 0)
	case ckksir.OpBootstrap:
		d.op, d.k = opBootstrap, in.AttrInt("target", 0)
	case ckksir.OpReinterpret:
		d.op, d.x = opReinterpret, in.AttrFloat("factor", 1)
	default:
		return d, fmt.Errorf("unknown op")
	}
	return d, operands(1)
}

// slotOf finds the slot holding the value with the given id.
func (p *Program) slotOf(id int) (int, bool) {
	s := sort.SearchInts(p.ids, id)
	return s, s < len(p.ids) && p.ids[s] == id
}

// table returns the weight table for params, replacing one made for
// other parameters: an encoding is only valid in the ring it was made
// for, so a stale table is never served.
func (p *Program) table(params *ckks.Parameters) *ckks.PlaintextMemo {
	for {
		t := p.weights.Load()
		if t != nil && t.Fits(params) {
			return t
		}
		fresh := ckks.NewPlaintextMemo(params, p.tableCap)
		if p.weights.CompareAndSwap(t, fresh) {
			return fresh
		}
	}
}

// TableStats reads the weight table's counters.
func (p *Program) TableStats() ckks.MemoStats {
	if t := p.weights.Load(); t != nil {
		return t.Stats()
	}
	return ckks.MemoStats{}
}
