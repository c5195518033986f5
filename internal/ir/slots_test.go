package ir

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// testKernels maps throwaway op names onto every shared slot kernel.
var testKernels = map[string]SlotKernel{
	"t.add":    SlotAdd,
	"t.sub":    SlotSub,
	"t.mul":    SlotMul,
	"t.neg":    SlotNeg,
	"t.id":     SlotIdentity,
	"t.rotate": SlotRotate,
	"t.scale":  SlotScale("c"),
	"t.poly":   SlotPoly,
	"t.linear": SlotLinear,
}

// TestSlotKernels runs each shared kernel as a one-instruction function
// through RunSlots: x is the parameter, konst (when set) a vector
// constant passed as the second argument.
func TestSlotKernels(t *testing.T) {
	x := []float64{1, -2, 3, 0.5}
	// Chebyshev 1 + 2·T1(u) + 3·T2(u), T2(u) = 2u²−1.
	cheb := func(u float64) float64 { return 1 + 2*u + 3*(2*u*u-1) }
	each := func(f func(float64) float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = f(v)
		}
		return out
	}
	cases := []struct {
		name  string
		op    string
		konst []float64
		attrs map[string]any
		want  []float64
	}{
		{name: "add", op: "t.add", konst: []float64{10, 20, 30, 40}, want: []float64{11, 18, 33, 40.5}},
		{name: "sub", op: "t.sub", konst: []float64{10, 20, 30, 40}, want: []float64{-9, -22, -27, -39.5}},
		{name: "mul", op: "t.mul", konst: []float64{2, 2, 2, 2}, want: []float64{2, -4, 6, 1}},
		{name: "short constant is zero-extended", op: "t.mul", konst: []float64{2, 3}, want: []float64{2, -6, 0, 0}},
		{name: "neg", op: "t.neg", want: []float64{-1, 2, -3, -0.5}},
		{name: "identity", op: "t.id", want: x},
		{name: "scale", op: "t.scale", attrs: map[string]any{"c": 0.5}, want: []float64{0.5, -1, 1.5, 0.25}},
		{name: "scale defaults to 1", op: "t.scale", want: x},
		{name: "rotate 0", op: "t.rotate", attrs: map[string]any{"k": 0}, want: x},
		{name: "rotate 1 is a left shift", op: "t.rotate", attrs: map[string]any{"k": 1}, want: []float64{-2, 3, 0.5, 1}},
		{name: "rotate -1", op: "t.rotate", attrs: map[string]any{"k": -1}, want: []float64{0.5, 1, -2, 3}},
		{name: "rotate n", op: "t.rotate", attrs: map[string]any{"k": 4}, want: x},
		{name: "rotate n+3", op: "t.rotate", attrs: map[string]any{"k": 7}, want: []float64{0.5, 1, -2, 3}},
		{name: "rotate -(n+2)", op: "t.rotate", attrs: map[string]any{"k": -6}, want: []float64{3, 0.5, 1, -2}},
		{name: "monomial", op: "t.poly", attrs: map[string]any{"coeffs": []float64{1, 0, 2}},
			want: each(func(v float64) float64 { return 1 + 2*v*v })},
		{name: "chebyshev on [-1,1]", op: "t.poly",
			attrs: map[string]any{"coeffs": []float64{1, 2, 3}, "basis": "cheb"},
			want:  each(cheb)},
		{name: "chebyshev on [a,b]", op: "t.poly",
			attrs: map[string]any{"coeffs": []float64{1, 2, 3}, "basis": "cheb", "a": -2.0, "b": 6.0},
			want:  each(func(v float64) float64 { return cheb((2*v - 4) / 8) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewModule("m").NewFunc("main")
			args := []*Value{f.NewParam("x", VectorType(len(x)))}
			if tc.konst != nil {
				args = append(args, f.NewConst("c", VectorType(len(tc.konst)), tc.konst))
			}
			f.Ret = f.Emit(tc.op, VectorType(len(x)), args, tc.attrs)
			got, err := RunSlots(f, x, testKernels, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.want {
				if math.Abs(got[i]-tc.want[i]) > 1e-12 {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestSlotLinear works one layer by hand: group g = 0 holds masks m0
// (baby 0) and m1 (baby 1), group g = 2 mask m2 (baby 0).
func TestSlotLinear(t *testing.T) {
	f := NewModule("m").NewFunc("main")
	args := []*Value{f.NewParam("x", VectorType(4))}
	for _, m := range [][]float64{{1, 1, 1, 1}, {2, 0, 1, 0}, {0, 1, 0, 1}} {
		args = append(args, f.NewConst("m", VectorType(4), m))
	}
	f.Ret = f.Emit("t.linear", VectorType(4), args, map[string]any{"b": []int{0, 1, 0}, "g": []int{0, 0, 2}})
	// m0⊙x + m1⊙roll(x,1) = (−3, −2, 3.5, 0.5); roll(m2⊙x, 2) = (0, 0.5,
	// 0, −2); their sum.
	got, err := RunSlots(f, []float64{1, -2, 3, 0.5}, testKernels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{-3, -1.5, 3.5, -1.5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	f.Body[0].Attrs["g"] = []int{0, 0}
	if _, err := RunSlots(f, []float64{1, -2, 3, 0.5}, testKernels, nil); err == nil {
		t.Fatal("a giant list shorter than the masks was accepted")
	}
}

// TestRunSlotsRejects: what RunSlots refuses, and that Eval names the
// instruction in the error.
func TestRunSlotsRejects(t *testing.T) {
	build := func(op string, konst []float64, attrs map[string]any) *Func {
		f := NewModule("m").NewFunc("main")
		args := []*Value{f.NewParam("x", VectorType(2))}
		if konst != nil {
			args = append(args, f.NewConst("c", VectorType(len(konst)), konst))
		}
		f.Ret = f.Emit(op, VectorType(2), args, attrs)
		return f
	}
	for _, tc := range []struct {
		name    string
		f       *Func
		input   []float64
		wantErr string
	}{
		{"wrong input width", build("t.neg", nil, nil), []float64{1}, "input length 1, want 2"},
		{"unknown op", build("t.nope", nil, nil), []float64{1, 2}, "instr 0 (t.nope): unknown op"},
		{"constant wider than the slots", build("t.add", []float64{1, 2, 3}, nil), []float64{1, 2}, "instr 0 (t.add): constant"},
		{"poly without coefficients", build("t.poly", nil, nil), []float64{1, 2}, "instr 0 (t.poly): poly: coeffs"},
		{"poly in an unknown basis", build("t.poly", nil, map[string]any{"coeffs": []float64{1}, "basis": "legendre"}),
			[]float64{1, 2}, `unknown basis "legendre"`},
	} {
		if _, err := RunSlots(tc.f, tc.input, testKernels, nil); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
