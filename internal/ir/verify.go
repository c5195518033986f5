package ir

import (
	"fmt"
	"sync"
)

// OpSpec describes an op for verification: argument kind sets (nil entry
// accepts anything), variadic tail, and the result kind.
type OpSpec struct {
	Name string
	// Args lists acceptable kinds per argument position; each entry is a
	// set of kinds. A nil set accepts any kind.
	Args [][]Kind
	// MinArgs permits optional trailing arguments (e.g. bias); when 0,
	// len(Args) is required exactly.
	MinArgs int
	// Variadic, when non-nil, accepts any number of further arguments
	// after Args, each of one of these kinds (a linear layer's masks).
	Variadic []Kind
	// Result is the required result kind (KindInvalid accepts any).
	Result Kind
	// RequiredAttrs must be present.
	RequiredAttrs []string
}

var (
	opRegistry   = map[string]OpSpec{}
	opRegistryMu sync.RWMutex
)

// RegisterOp installs an op spec. Dialect packages call this from init.
func RegisterOp(spec OpSpec) {
	opRegistryMu.Lock()
	defer opRegistryMu.Unlock()
	if _, dup := opRegistry[spec.Name]; dup {
		panic("ir: duplicate op registration: " + spec.Name)
	}
	opRegistry[spec.Name] = spec
}

// LookupOp fetches an op spec.
func LookupOp(name string) (OpSpec, bool) {
	opRegistryMu.RLock()
	defer opRegistryMu.RUnlock()
	s, ok := opRegistry[name]
	return s, ok
}

// VerifyFunc checks every instruction against the registry plus SSA
// structural invariants (arguments defined before use).
func VerifyFunc(f *Func) error {
	defined := NewValues[bool](f)
	for _, p := range f.Params {
		if p.fn != f {
			return fmt.Errorf("parameter %s is a value of %s", p, p.fn.name())
		}
		defined.Set(p, true)
	}
	for idx, in := range f.Body {
		spec, ok := LookupOp(in.Op)
		if !ok {
			return fmt.Errorf("instr %d: unregistered op %q", idx, in.Op)
		}
		min := spec.MinArgs
		if min == 0 {
			min = len(spec.Args)
		}
		if len(in.Args) < min || len(in.Args) > len(spec.Args) && spec.Variadic == nil {
			return fmt.Errorf("instr %d (%s): %d args, want %d..%d", idx, in.Op, len(in.Args), min, len(spec.Args))
		}
		for i, a := range in.Args {
			if a == nil {
				return fmt.Errorf("instr %d (%s): nil argument %d", idx, in.Op, i)
			}
			if a.fn != f {
				return fmt.Errorf("instr %d (%s): argument %d is a value of %s", idx, in.Op, i, a.fn.name())
			}
			if !a.IsConst() && a.Def == nil && !isParam(f, a) {
				return fmt.Errorf("instr %d (%s): argument %d has no definition", idx, in.Op, i)
			}
			if !a.IsConst() && a.Def != nil && !defined.Get(a) {
				return fmt.Errorf("instr %d (%s): argument %s used before definition", idx, in.Op, a)
			}
			set := spec.Variadic
			if i < len(spec.Args) {
				set = spec.Args[i]
			}
			if set != nil {
				okKind := false
				for _, k := range set {
					if a.Type.Kind == k {
						okKind = true
						break
					}
				}
				if !okKind {
					return fmt.Errorf("instr %d (%s): argument %d has kind %s, want one of %v", idx, in.Op, i, a.Type.Kind, set)
				}
			}
		}
		for _, attr := range spec.RequiredAttrs {
			if in.Attr(attr) == nil {
				return fmt.Errorf("instr %d (%s): missing attribute %q", idx, in.Op, attr)
			}
		}
		if spec.Result != KindInvalid && in.Result.Type.Kind != spec.Result {
			return fmt.Errorf("instr %d (%s): result kind %s, want %s", idx, in.Op, in.Result.Type.Kind, spec.Result)
		}
		if in.Result.fn != f {
			return fmt.Errorf("instr %d (%s): result is a value of %s", idx, in.Op, in.Result.fn.name())
		}
		defined.Set(in.Result, true)
	}
	if f.Ret != nil && f.Ret.fn != f {
		return fmt.Errorf("return value %s is a value of %s", f.Ret, f.Ret.fn.name())
	}
	if f.Ret != nil && !defined.Get(f.Ret) && !f.Ret.IsConst() && !isParam(f, f.Ret) {
		return fmt.Errorf("return value %s never defined", f.Ret)
	}
	return nil
}

func isParam(f *Func, v *Value) bool {
	for _, p := range f.Params {
		if p == v {
			return true
		}
	}
	return false
}
