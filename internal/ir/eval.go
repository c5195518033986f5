package ir

import "fmt"

// Eval is the one cleartext evaluator: it walks f's straight-line body
// once, resolving every argument from the parameters (positional, one
// per f.Params), a constant (through konst) or an earlier result, and
// calls step to compute each instruction. What an op means in the clear
// is entirely the dialect's step; the walking, the environment and the
// error context (instruction index and op) live only here. observe, if
// non-nil, sees every instruction once, in body order, with its resolved
// arguments and its result.
func Eval[T any](f *Func, params []T, konst func(*Value) (T, error),
	step func(*Instr, []T) (T, error), observe func(*Instr, []T, T)) (T, error) {
	var zero T
	if len(params) != len(f.Params) {
		return zero, fmt.Errorf("%s: %d inputs for %d parameters", f.Name, len(params), len(f.Params))
	}
	env := make(map[*Value]T, len(f.Params)+len(f.Body))
	for i, p := range f.Params {
		env[p] = params[i]
	}
	get := func(v *Value) (T, error) {
		if v == nil {
			return zero, fmt.Errorf("%s: nil value", f.Name)
		}
		if v.IsConst() {
			return konst(v)
		}
		if x, ok := env[v]; ok {
			return x, nil
		}
		return zero, fmt.Errorf("value %s not computed", v)
	}
	for idx, in := range f.Body {
		args := make([]T, len(in.Args))
		var err error
		for i, a := range in.Args {
			if args[i], err = get(a); err != nil {
				return zero, fmt.Errorf("instr %d (%s): %w", idx, in.Op, err)
			}
		}
		out, err := step(in, args)
		if err != nil {
			return zero, fmt.Errorf("instr %d (%s): %w", idx, in.Op, err)
		}
		if observe != nil {
			observe(in, args, out)
		}
		env[in.Result] = out
	}
	return get(f.Ret)
}
