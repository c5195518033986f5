package ir

import (
	"strings"
	"testing"
)

func init() {
	RegisterOp(OpSpec{Name: "test.unary", Args: [][]Kind{{KindVector}}, Result: KindVector})
	RegisterOp(OpSpec{Name: "test.binary", Args: [][]Kind{{KindVector}, {KindVector}}, Result: KindVector})
	RegisterOp(OpSpec{Name: "test.attr", Args: [][]Kind{{KindVector}}, Result: KindVector, RequiredAttrs: []string{"k"}})
	RegisterOp(OpSpec{Name: "test.opt", Args: [][]Kind{{KindVector}, {KindVector}}, MinArgs: 1, Result: KindVector})
	RegisterOp(OpSpec{Name: "test.variadic", Args: [][]Kind{{KindCipher}}, MinArgs: 2, Variadic: []Kind{KindPlain}, Result: KindCipher})
}

func TestTypeString(t *testing.T) {
	cases := map[string]Type{
		"tensor<1x3x32x32>": TensorType(1, 3, 32, 32),
		"vector<64>":        VectorType(64),
		"cipher<128>":       CipherType(128),
		"plain<128>":        PlainType(128),
	}
	for want, ty := range cases {
		if got := ty.String(); got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
	if !TensorType(2, 3).Equal(TensorType(2, 3)) {
		t.Error("equal types not equal")
	}
	if TensorType(2, 3).Equal(TensorType(3, 2)) {
		t.Error("unequal types equal")
	}
	if TensorType(2, 3).Len() != 6 {
		t.Error("Len wrong")
	}
}

func TestEmitAndVerify(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(8))
	v := f.Emit("test.unary", VectorType(8), []*Value{p}, nil)
	f.Ret = v
	if err := VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	// Unregistered op.
	f2 := m.NewFunc("bad")
	p2 := f2.NewParam("x", VectorType(8))
	f2.Ret = f2.Emit("test.nonexistent", VectorType(8), []*Value{p2}, nil)
	if err := VerifyFunc(f2); err == nil {
		t.Fatal("expected unregistered-op error")
	}
}

func TestVerifyCatchesArityAndKind(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(8))
	f.Ret = f.Emit("test.binary", VectorType(8), []*Value{p}, nil) // missing arg
	if err := VerifyFunc(f); err == nil {
		t.Fatal("expected arity error")
	}

	f2 := m.NewFunc("kinds")
	p2 := f2.NewParam("x", CipherType(8))
	f2.Ret = f2.Emit("test.unary", VectorType(8), []*Value{p2}, nil)
	if err := VerifyFunc(f2); err == nil {
		t.Fatal("expected kind error")
	}

	f3 := m.NewFunc("attrs")
	p3 := f3.NewParam("x", VectorType(8))
	f3.Ret = f3.Emit("test.attr", VectorType(8), []*Value{p3}, nil)
	if err := VerifyFunc(f3); err == nil {
		t.Fatal("expected missing-attr error")
	}

	f4 := m.NewFunc("optional")
	p4 := f4.NewParam("x", VectorType(8))
	f4.Ret = f4.Emit("test.opt", VectorType(8), []*Value{p4}, nil)
	if err := VerifyFunc(f4); err != nil {
		t.Fatalf("optional arg rejected: %v", err)
	}

	// A variadic tail takes any number of arguments of its kinds, at least
	// MinArgs in all.
	for n, want := range map[int]bool{0: false, 1: true, 3: true} {
		f := m.NewFunc("variadic")
		args := []*Value{f.NewParam("x", CipherType(8))}
		for range n {
			args = append(args, f.NewConst("p", PlainType(8), []float64{1}))
		}
		f.Ret = f.Emit("test.variadic", CipherType(8), args, nil)
		if err := VerifyFunc(f); (err == nil) != want {
			t.Errorf("%d tail arguments: error %v", n, err)
		}
	}
	f5 := m.NewFunc("variadic-kind")
	p5 := f5.NewParam("x", CipherType(8))
	f5.Ret = f5.Emit("test.variadic", CipherType(8), []*Value{p5, f5.NewConst("v", VectorType(8), []float64{1})}, nil)
	if err := VerifyFunc(f5); err == nil {
		t.Fatal("a tail argument of the wrong kind was accepted")
	}
}

func TestVerifyUseBeforeDef(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(8))
	a := f.Emit("test.unary", VectorType(8), []*Value{p}, nil)
	b := f.Emit("test.unary", VectorType(8), []*Value{a}, nil)
	f.Ret = b
	// Swap the instructions to break dominance.
	f.Body[0], f.Body[1] = f.Body[1], f.Body[0]
	if err := VerifyFunc(f); err == nil {
		t.Fatal("expected use-before-def error")
	}
}

func TestDCE(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(8))
	live := f.Emit("test.unary", VectorType(8), []*Value{p}, nil)
	f.Emit("test.unary", VectorType(8), []*Value{p}, nil) // dead
	f.Ret = live
	if err := DCE().Run(m); err != nil {
		t.Fatal(err)
	}
	if len(f.Body) != 1 {
		t.Fatalf("DCE left %d instructions", len(f.Body))
	}
}

func TestCSE(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(8))
	a := f.Emit("test.attr", VectorType(8), []*Value{p}, map[string]any{"k": 3})
	b := f.Emit("test.attr", VectorType(8), []*Value{p}, map[string]any{"k": 3})
	c := f.Emit("test.attr", VectorType(8), []*Value{p}, map[string]any{"k": 4})
	sum := f.Emit("test.binary", VectorType(8), []*Value{a, b}, nil)
	sum2 := f.Emit("test.binary", VectorType(8), []*Value{sum, c}, nil)
	f.Ret = sum2
	if err := CSE().Run(m); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range f.Body {
		if in.Op == "test.attr" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("CSE kept %d test.attr ops, want 2 (k=3 merged, k=4 kept)", count)
	}
	if err := VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
}

func TestPrinter(t *testing.T) {
	m := NewModule("printme")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(4))
	f.Ret = f.Emit("test.attr", VectorType(4), []*Value{p}, map[string]any{"k": 7})
	s := m.String()
	for _, frag := range []string{"module printme", "func main", "test.attr", "k=7", "return"} {
		if !strings.Contains(s, frag) {
			t.Errorf("printer output missing %q:\n%s", frag, s)
		}
	}
}

func TestOpHistogramAndCounts(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("main")
	p := f.NewParam("x", VectorType(8))
	a := f.Emit("test.unary", VectorType(8), []*Value{p}, nil)
	f.Ret = f.Emit("test.binary", VectorType(8), []*Value{a, a}, nil)
	h := f.OpHistogram()
	if h["test.unary"] != 1 || h["test.binary"] != 1 {
		t.Fatalf("histogram %v", h)
	}
	if f.InstrCount("test.") != 2 {
		t.Fatal("InstrCount prefix filter wrong")
	}
}
