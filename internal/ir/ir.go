// Package ir provides the multi-level intermediate representation
// infrastructure of the compiler: typed SSA-style functions over dialect
// ops (nn.*, vec.*, sihe.*, ckks.*, poly.*), a pass manager with per-
// level timing (the paper's Figure 5 measures these), an op registry
// with verifiers, a textual printer, and the generic optimisation passes
// (DCE, CSE).
package ir

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// Kind classifies value types across all IR levels.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt          // scalar integer attribute-like value
	KindFloat        // scalar float
	KindTensor       // NN IR: dense tensor
	KindVector       // VECTOR IR: cleartext vector
	KindPlain        // SIHE/CKKS: encoded plaintext
	KindCipher       // SIHE/CKKS: ciphertext (2 polynomials at CKKS level)
	KindCipher3      // CKKS: degree-2 ciphertext awaiting relinearisation
	KindPoly         // POLY IR: RNS polynomial vector
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindTensor:
		return "tensor"
	case KindVector:
		return "vector"
	case KindPlain:
		return "plain"
	case KindCipher:
		return "cipher"
	case KindCipher3:
		return "cipher3"
	case KindPoly:
		return "poly"
	}
	return "invalid"
}

// Type is a value type: a kind plus a shape (tensor dims, or a single
// length for vector-like kinds).
type Type struct {
	Kind  Kind
	Shape []int
}

// TensorType builds a tensor type.
func TensorType(shape ...int) Type { return Type{Kind: KindTensor, Shape: shape} }

// VectorType builds a vector type of the given length.
func VectorType(n int) Type { return Type{Kind: KindVector, Shape: []int{n}} }

// CipherType builds a ciphertext type over n slots.
func CipherType(n int) Type { return Type{Kind: KindCipher, Shape: []int{n}} }

// PlainType builds a plaintext type over n slots.
func PlainType(n int) Type { return Type{Kind: KindPlain, Shape: []int{n}} }

// Len returns the element count.
func (t Type) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

func (t Type) String() string {
	if len(t.Shape) == 0 {
		return t.Kind.String()
	}
	parts := make([]string, len(t.Shape))
	for i, d := range t.Shape {
		parts[i] = fmt.Sprint(d)
	}
	return fmt.Sprintf("%s<%s>", t.Kind, strings.Join(parts, "x"))
}

// Equal reports type equality.
func (t Type) Equal(o Type) bool {
	if t.Kind != o.Kind || len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Value is an SSA value: produced by at most one instruction (Def) or
// born as a parameter/constant.
type Value struct {
	ID   int
	Name string
	Type Type
	Def  *Instr // nil for parameters and constants
	// Const holds the payload for constant values: *tensor.Tensor,
	// []float64, float64 or int, depending on Kind.
	Const any
	// Level and Scale carry the CKKS metadata assigned by the scale
	// management pass (meaningful for cipher/plain kinds only).
	Level int
	Scale float64
}

// IsConst reports whether the value is a compile-time constant.
func (v *Value) IsConst() bool { return v.Const != nil }

func (v *Value) String() string {
	if v.Name != "" {
		return "%" + v.Name
	}
	return fmt.Sprintf("%%v%d", v.ID)
}

// Instr is a single-result instruction.
type Instr struct {
	Op     string // dialect-qualified, e.g. "nn.conv"
	Args   []*Value
	Attrs  map[string]any
	Result *Value
}

// Attr returns an attribute or nil.
func (in *Instr) Attr(name string) any {
	if in.Attrs == nil {
		return nil
	}
	return in.Attrs[name]
}

// AttrInt returns an int attribute with a default.
func (in *Instr) AttrInt(name string, def int) int {
	if v, ok := in.Attrs[name].(int); ok {
		return v
	}
	return def
}

// AttrFloat returns a float attribute with a default.
func (in *Instr) AttrFloat(name string, def float64) float64 {
	if v, ok := in.Attrs[name].(float64); ok {
		return v
	}
	return def
}

// AttrInts returns an int-slice attribute.
func (in *Instr) AttrInts(name string) []int {
	v, _ := in.Attrs[name].([]int)
	return v
}

// Dialect returns the op's dialect prefix ("nn", "vec", ...).
func (in *Instr) Dialect() string {
	if i := strings.IndexByte(in.Op, '.'); i >= 0 {
		return in.Op[:i]
	}
	return ""
}

// Func is a function: parameters, a straight-line body (the compiler
// fully unrolls NN inference), and a single return value.
type Func struct {
	Name   string
	Params []*Value
	Body   []*Instr
	Ret    *Value
	nextID int
}

// Module is a compilation unit.
type Module struct {
	Name  string
	Funcs []*Func
	Attrs map[string]any

	prepOnce sync.Once
	prep     any
}

// Prepared returns what build made of the module the first time Prepared
// was called on it. An executor keeps the form it derives from a
// finished module here, once, so the derived form is shared by everyone
// who runs the module and is collected with it. The module must not be
// modified afterwards.
func (m *Module) Prepared(build func() any) any {
	m.prepOnce.Do(func() { m.prep = build() })
	return m.prep
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, Attrs: map[string]any{}}
}

// NewFunc appends a new function to the module.
func (m *Module) NewFunc(name string) *Func {
	f := &Func{Name: name}
	m.Funcs = append(m.Funcs, f)
	return f
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Main returns the first function (the inference entry point).
func (m *Module) Main() *Func {
	if len(m.Funcs) == 0 {
		return nil
	}
	return m.Funcs[0]
}

// NewValue creates a fresh unbound value.
func (f *Func) NewValue(name string, t Type) *Value {
	f.nextID++
	return &Value{ID: f.nextID, Name: name, Type: t}
}

// NewParam appends a parameter.
func (f *Func) NewParam(name string, t Type) *Value {
	v := f.NewValue(name, t)
	f.Params = append(f.Params, v)
	return v
}

// NewConst creates a constant value.
func (f *Func) NewConst(name string, t Type, payload any) *Value {
	v := f.NewValue(name, t)
	v.Const = payload
	return v
}

// Emit appends an instruction producing a fresh result of type t.
func (f *Func) Emit(op string, t Type, args []*Value, attrs map[string]any) *Value {
	res := f.NewValue("", t)
	in := &Instr{Op: op, Args: args, Attrs: attrs, Result: res}
	res.Def = in
	f.Body = append(f.Body, in)
	return res
}

// InstrCount returns the number of instructions, optionally filtered by
// op prefix.
func (f *Func) InstrCount(prefix string) int {
	n := 0
	for _, in := range f.Body {
		if strings.HasPrefix(in.Op, prefix) {
			n++
		}
	}
	return n
}

// OpHistogram counts instructions per op.
func (f *Func) OpHistogram() map[string]int {
	h := map[string]int{}
	for _, in := range f.Body {
		h[in.Op]++
	}
	return h
}

// SortedAttrKeys returns attribute keys in deterministic (sorted) order.
func SortedAttrKeys(attrs map[string]any) []string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Fingerprint hashes a function's instruction stream — ops, value
// numbering, parameter list — so that a runtime snapshot is bound to
// the program it was taken against and repeated compiles can be checked
// to agree. No attribute is hashed, neither payloads (weights: hashing
// them on each checkpoint would dominate the checkpoint cost) nor
// scalars (roll amounts, levels, scales), so two functions that differ
// only in attributes collide: a caller comparing compiles made under
// different options must compare what those options change as well.
func Fingerprint(f *Func) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(len(f.Params)))
	for _, p := range f.Params {
		word(uint64(p.ID))
	}
	for _, in := range f.Body {
		h.Write([]byte(in.Op))
		word(uint64(in.Result.ID))
		word(uint64(len(in.Args)))
		for _, a := range in.Args {
			word(uint64(a.ID))
		}
	}
	if f.Ret != nil {
		word(uint64(f.Ret.ID))
	}
	return h.Sum64()
}
