package ir

import "fmt"

// Table is a function written out as flat tables, the form a compiled
// program is stored in: every value once, with its metadata and its
// vector payload, and every instruction as an op over value indices.
// Flatten and Build are inverses; Build checks everything it is handed,
// so a Table read from an untrusted file gives a verified function or an
// error.
type Table struct {
	Name   string
	Values []TableValue
	Params []int // indices into Values
	Body   []TableInstr
	Ret    int // index into Values
	// Fingerprint is Fingerprint of the flattened function; Build
	// refuses a table whose rebuilt function hashes differently.
	Fingerprint uint64
}

// TableValue is one value. Const is its payload when it is a constant;
// only vector constants ([]float64) can be written out.
type TableValue struct {
	ID    int
	Name  string
	Type  Type
	Level int
	Scale float64
	Const []float64
}

// TableInstr is one instruction. Attrs lists the attributes in sorted
// key order, so equal functions give equal tables.
type TableInstr struct {
	Op     string
	Args   []int // indices into Values
	Attrs  []TableAttr
	Result int // index into Values
}

// TableAttr is one attribute.
type TableAttr struct {
	Key   string
	Value any
}

// Flatten writes f out as a Table. It fails on a constant whose payload
// is not a non-empty []float64.
func Flatten(f *Func) (*Table, error) {
	t := &Table{Name: f.Name, Fingerprint: Fingerprint(f)}
	index := NewValues[int](f)
	add := func(v *Value) (int, error) {
		if i, ok := index.Lookup(v); ok {
			return i, nil
		}
		tv := TableValue{ID: v.ID, Name: v.Name, Type: v.Type, Level: v.Level, Scale: v.Scale}
		if v.IsConst() {
			vec, ok := v.Const.([]float64)
			if !ok || len(vec) == 0 {
				return 0, fmt.Errorf("ir: constant %s holds %T, want a non-empty []float64", v, v.Const)
			}
			tv.Const = vec
		}
		index.Set(v, len(t.Values))
		t.Values = append(t.Values, tv)
		return len(t.Values) - 1, nil
	}
	for _, p := range f.Params {
		i, err := add(p)
		if err != nil {
			return nil, err
		}
		t.Params = append(t.Params, i)
	}
	for _, in := range f.Body {
		ti := TableInstr{Op: in.Op, Args: make([]int, len(in.Args))}
		for j, a := range in.Args {
			i, err := add(a)
			if err != nil {
				return nil, err
			}
			ti.Args[j] = i
		}
		for _, k := range SortedAttrKeys(in.Attrs) {
			ti.Attrs = append(ti.Attrs, TableAttr{k, in.Attrs[k]})
		}
		i, err := add(in.Result)
		if err != nil {
			return nil, err
		}
		ti.Result = i
		t.Body = append(t.Body, ti)
	}
	if f.Ret == nil {
		return nil, fmt.Errorf("ir: %s has no return value", f.Name)
	}
	i, err := add(f.Ret)
	if err != nil {
		return nil, err
	}
	t.Ret = i
	return t, nil
}

// maxIDsPerValue bounds the value IDs Build accepts: at most this many
// per value of the table.
const maxIDsPerValue = 16

// Build rebuilds the function a Table was flattened from. Every index is
// checked against its bounds, value IDs must be distinct and at most
// maxIDsPerValue per value, every value may have one role (parameter,
// constant or the result of one instruction), the rebuilt function must
// pass VerifyFunc, and its Fingerprint must be the recorded one.
func (t *Table) Build() (*Func, error) {
	f := &Func{Name: t.Name}
	values := make([]*Value, len(t.Values))
	claimed := make([]bool, len(values)) // constant, parameter or result
	// IDs index the passes' value tables (Values), so each must be one of
	// its own, and a corrupt table must not size those tables: a function
	// made by the compiler numbers about one ID per value it keeps.
	maxID := maxIDsPerValue * len(t.Values)
	taken := make([]bool, maxID+1)
	for i, tv := range t.Values {
		if tv.ID < 1 || tv.ID > maxID || taken[tv.ID] {
			return nil, fmt.Errorf("ir: value %d: ID %d repeated or outside [1,%d]", i, tv.ID, maxID)
		}
		taken[tv.ID] = true
		v := &Value{ID: tv.ID, Name: tv.Name, Type: tv.Type, Level: tv.Level, Scale: tv.Scale, fn: f}
		if tv.Const != nil { // a nil slice would still be a non-nil any
			v.Const = tv.Const
			claimed[i] = true
		}
		values[i] = v
		f.nextID = max(f.nextID, tv.ID)
	}
	at := func(i int) (*Value, error) {
		if i < 0 || i >= len(values) {
			return nil, fmt.Errorf("value %d out of range [0,%d)", i, len(values))
		}
		return values[i], nil
	}
	claim := func(i int) (*Value, error) {
		v, err := at(i)
		if err == nil && claimed[i] {
			return nil, fmt.Errorf("value %d is already a constant, parameter or result", i)
		}
		if err == nil {
			claimed[i] = true
		}
		return v, err
	}
	for _, i := range t.Params {
		p, err := claim(i)
		if err != nil {
			return nil, fmt.Errorf("ir: parameter: %w", err)
		}
		f.Params = append(f.Params, p)
	}
	f.Body = make([]*Instr, len(t.Body))
	for n, ti := range t.Body {
		in := &Instr{Op: ti.Op, Args: make([]*Value, len(ti.Args))}
		for j, a := range ti.Args {
			var err error
			if in.Args[j], err = at(a); err != nil {
				return nil, fmt.Errorf("ir: instr %d (%s): argument %d: %w", n, ti.Op, j, err)
			}
		}
		if len(ti.Attrs) > 0 {
			in.Attrs = make(map[string]any, len(ti.Attrs))
			for _, a := range ti.Attrs {
				in.Attrs[a.Key] = a.Value
			}
		}
		res, err := claim(ti.Result)
		if err != nil {
			return nil, fmt.Errorf("ir: instr %d (%s): result: %w", n, ti.Op, err)
		}
		res.Def, in.Result = in, res
		f.Body[n] = in
	}
	var err error
	if f.Ret, err = at(t.Ret); err != nil {
		return nil, fmt.Errorf("ir: return value: %w", err)
	}
	if err := VerifyFunc(f); err != nil {
		return nil, fmt.Errorf("ir: %w", err)
	}
	if fp := Fingerprint(f); fp != t.Fingerprint {
		return nil, fmt.Errorf("ir: fingerprint %#x, table records %#x", fp, t.Fingerprint)
	}
	return f, nil
}
