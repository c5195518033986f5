package ir

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestValuesTable: a table over one function records, finds and grows
// by value ID, and refuses a value of another function loudly, even one
// whose ID names an entry it holds.
func TestValuesTable(t *testing.T) {
	f := NewModule("test").NewFunc("f")
	x := f.NewParam("x", VectorType(4))
	y := f.Emit("test.unary", VectorType(4), []*Value{x}, nil)
	tab := NewValues[string](f)
	tab.Set(x, "x")
	if got, ok := tab.Lookup(x); !ok || got != "x" {
		t.Fatalf("Lookup(x) = %q, %v", got, ok)
	}
	if tab.Has(y) || tab.Get(y) != "" {
		t.Fatal("y found before it was set")
	}
	late := f.NewValue("late", VectorType(4)) // made after the table
	if tab.Has(late) {
		t.Fatal("a value made after the table was found")
	}
	tab.Set(late, "late")
	if tab.Get(late) != "late" || tab.Get(x) != "x" || f.NumValues() != late.ID {
		t.Fatal("growing the table lost an entry")
	}

	g := NewModule("test").NewFunc("g")
	foreign := g.NewParam("x", VectorType(4))
	if foreign.ID != x.ID {
		t.Fatalf("foreign value has ID %d, want %d to test aliasing", foreign.ID, x.ID)
	}
	for name, use := range map[string]func(){
		"Get":    func() { tab.Get(foreign) },
		"Lookup": func() { tab.Lookup(foreign) },
		"Has":    func() { tab.Has(foreign) },
		"Set":    func() { tab.Set(foreign, "alias") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "looked up in a table of f") {
					t.Errorf("%s with a value of g: recovered %v, want a panic naming both functions", name, r)
				}
			}()
			use()
		}()
	}
	if tab.Get(x) != "x" {
		t.Fatal("a refused foreign Set changed an entry")
	}

	// VerifyFunc reports a foreign argument as an error.
	f.Ret = f.Emit("test.binary", VectorType(4), []*Value{y, foreign}, nil)
	if err := VerifyFunc(f); err == nil || !strings.Contains(err.Error(), "is a value of g") {
		t.Fatalf("VerifyFunc with a value of g: %v", err)
	}
}

// TestUses counts every argument position and the return value.
func TestUses(t *testing.T) {
	f := NewModule("test").NewFunc("f")
	x := f.NewParam("x", VectorType(4))
	y := f.Emit("test.binary", VectorType(4), []*Value{x, x}, nil)
	f.Ret = f.Emit("test.binary", VectorType(4), []*Value{y, x}, nil)
	uses := Uses(f)
	if uses.Get(x) != 3 || uses.Get(y) != 1 || uses.Get(f.Ret) != 1 {
		t.Fatalf("uses x %d y %d ret %d, want 3 1 1", uses.Get(x), uses.Get(y), uses.Get(f.Ret))
	}
}

// instrKeyFmt is the CSE key appendInstrKey replaced, kept as the
// reference: the same fields through fmt.
func instrKeyFmt(in *Instr) string {
	attrKey := func(v any) string {
		switch t := v.(type) {
		case []int:
			return fmt.Sprint(t)
		case []float64:
			if len(t) > 8 {
				return fmt.Sprintf("f64@%p", t)
			}
			return fmt.Sprint(t)
		default:
			return fmt.Sprint(v)
		}
	}
	var sb strings.Builder
	sb.WriteString(in.Op)
	for _, a := range in.Args {
		fmt.Fprintf(&sb, "|%d", a.ID)
	}
	for _, k := range SortedAttrKeys(in.Attrs) {
		fmt.Fprintf(&sb, "|%s=%v", k, attrKey(in.Attrs[k]))
	}
	return sb.String()
}

// TestInstrKeyMatchesFmt: CSE keys are the strings the fmt-built key
// gave, for every attribute type the lowerings emit and a fallback one,
// so CSE merges exactly what it merged before.
func TestInstrKeyMatchesFmt(t *testing.T) {
	f := NewModule("test").NewFunc("f")
	x := f.NewParam("x", VectorType(4))
	c := f.NewConst("c", VectorType(4), []float64{1, 2, 3, 4})
	for _, attrs := range []map[string]any{
		nil,
		{},
		{"k": -17, "bound": 1.5e-7, "kind": "tanh", "relu_last": true},
		{"b": []int{0, 3, -2, 1 << 40}, "g": []int{}, "scale": 1099511627776.0, "c": math.Copysign(0, -1)},
		{"coeffs": []float64{0.5, -0.25}, "long": make([]float64, 9), "big": 1e21, "nan": math.NaN()},
		{"other": struct{ A, B int }{1, 2}, "u": uint8(7)},
	} {
		in := &Instr{Op: "test.binary", Args: []*Value{x, c}, Attrs: attrs, Result: x}
		if got, want := string(appendInstrKey(nil, in)), instrKeyFmt(in); got != want {
			t.Errorf("key %q, fmt key %q", got, want)
		}
	}
}
