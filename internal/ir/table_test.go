package ir

import (
	"reflect"
	"testing"
)

// TestTableRoundTrip: Build gives back the flattened function, and
// refuses a table with an index out of range, a value in two roles or a
// fingerprint that does not match.
func TestTableRoundTrip(t *testing.T) {
	f := NewModule("test").NewFunc("main")
	p := f.NewParam("x", VectorType(4))
	c := f.NewConst("w", VectorType(4), []float64{1, 2, 3, 4})
	a := f.Emit("test.binary", VectorType(4), []*Value{p, c}, nil)
	f.Ret = f.Emit("test.attr", VectorType(4), []*Value{a}, map[string]any{"k": 3, "s": []int{1, 2}})

	tab, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tab.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != f.String() || Fingerprint(g) != Fingerprint(f) {
		t.Fatalf("rebuilt\n%s\nwant\n%s", g, f)
	}
	if !reflect.DeepEqual(g.Body[1].Attrs, f.Body[1].Attrs) || g.Body[0].Args[1].Const.([]float64)[3] != 4 {
		t.Fatal("attributes or constants changed")
	}
	if v := g.NewValue("", VectorType(4)); v.ID <= f.Ret.ID {
		t.Fatalf("fresh value id %d collides with the rebuilt ones", v.ID)
	}

	for name, corrupt := range map[string]func(*Table){
		"arg out of range":    func(t *Table) { t.Body[0].Args[0] = len(t.Values) },
		"negative result":     func(t *Table) { t.Body[0].Result = -1 },
		"ret out of range":    func(t *Table) { t.Ret = len(t.Values) },
		"result is a param":   func(t *Table) { t.Body[0].Result = t.Params[0] },
		"result is a const":   func(t *Table) { t.Body[0].Result = t.Body[0].Args[1] },
		"two results one val": func(t *Table) { t.Body[1].Result = t.Body[0].Result },
		"use before def":      func(t *Table) { t.Body[0].Args[0] = t.Body[1].Result },
		"fingerprint":         func(t *Table) { t.Fingerprint++ },
		"missing attr":        func(t *Table) { t.Body[1].Attrs = nil },
		"repeated id":         func(t *Table) { t.Values[1].ID = t.Values[0].ID },
		"id zero":             func(t *Table) { t.Values[0].ID = 0 },
		"id past the bound":   func(t *Table) { t.Values[0].ID = maxIDsPerValue*len(t.Values) + 1 },
	} {
		bad, err := Flatten(f)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(bad)
		if _, err := bad.Build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
