package ckksir_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/ir"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vecir"
	"antace/internal/vm"
)

type artifactCase struct {
	name string
	prog *core.Compiled
}

// artifactCases are the programs the artifact must carry whole: a
// linear layer, a Chebyshev polynomial on a general [a,b] (Gemm+Tanh)
// and a bootstrapping small CNN.
func artifactCases(t testing.TB) []artifactCase {
	linear, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	b := onnx.NewBuilder("gemm_tanh")
	x := b.Input("image", 1, 16)
	w := tensor.New(4, 16)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.5
	}
	h := b.Gemm(x, b.Weight("w", w), b.Weight("b", tensor.New(4)))
	b.Output(b.Node("Tanh", []string{h}), 1, 4)
	cnn, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	relu := sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125}
	never := ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true, LogScale: 40}
	var out []artifactCase
	for _, tc := range []struct {
		name  string
		model *onnx.Model
		cfg   core.Config
	}{
		{"linear", linear, core.Config{SIHE: relu, CKKS: never}},
		{"gemm_tanh", b.Model(), core.Config{SIHE: sihe.Options{SmoothDegree: 15}, CKKS: never}},
		{"small_cnn", cnn, core.Config{SIHE: relu, CKKS: ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true}}},
	} {
		c, err := core.Compile(tc.model, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, artifactCase{tc.name, c})
	}
	return out
}

// TestResultRoundTrip: a decoded artifact is the compiled program: the
// same fingerprint, header and attributes, the same bytes when encoded
// again, and byte-identical output ciphertexts on one machine and input.
func TestResultRoundTrip(t *testing.T) {
	for _, tc := range artifactCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.prog.CKKS
			data, err := want.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got ckksir.Result
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			wf, gf := want.Module.Main(), got.Module.Main()
			if ir.Fingerprint(gf) != ir.Fingerprint(wf) {
				t.Fatal("fingerprints differ")
			}
			wh, gh := *want, got
			wh.Module, gh.Module = nil, nil
			if !reflect.DeepEqual(gh, wh) {
				t.Fatalf("header %+v, want %+v", gh, wh)
			}
			in, out, err := vecir.Layouts(got.Module)
			if err != nil {
				t.Fatal(err)
			}
			if !in.Equal(tc.prog.Vec.InLayout) || !out.Equal(tc.prog.Vec.OutLayout) {
				t.Fatalf("layouts %s, %s; want %s, %s", in, out, tc.prog.Vec.InLayout, tc.prog.Vec.OutLayout)
			}
			if tc.name == "small_cnn" && got.Boot == nil {
				t.Fatal("program does not bootstrap")
			}
			for i, in := range wf.Body {
				if !reflect.DeepEqual(gf.Body[i].Attrs, in.Attrs) {
					t.Fatalf("instr %d (%s): attrs %v, want %v", i, in.Op, gf.Body[i].Attrs, in.Attrs)
				}
			}
			again, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("re-encoding the decoded program changed its bytes")
			}

			n := tc.prog.VectorLen()
			machine, client, err := vm.New(want, n, &[32]byte{7})
			if err != nil {
				t.Fatal(err)
			}
			input := make([]float64, n)
			for i := range input {
				input[i] = math.Sin(float64(i)) * 0.1
			}
			ct, err := client.Encrypt(input)
			if err != nil {
				t.Fatal(err)
			}
			var outs [2][]byte
			for i, mod := range []*ir.Module{want.Module, got.Module} {
				out, err := machine.Run(mod, ct)
				if err != nil {
					t.Fatal(err)
				}
				if outs[i], err = out.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(outs[0], outs[1]) {
				t.Fatal("the decoded program's output differs from the compiled one's")
			}
		})
	}
}

// version1 is an artifact of the first format, which carried no packing
// layouts.
func version1(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Version int
		Module  string
	}{1, "old"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultRefusesVersion1: a version-1 artifact is refused with an
// error that names its version.
func TestResultRefusesVersion1(t *testing.T) {
	var r ckksir.Result
	err := r.UnmarshalBinary(version1(t))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 artifact: err = %v", err)
	}
}

// FuzzResultUnmarshal: whatever the bytes, UnmarshalBinary returns an
// error or a module whose main function passes ir.VerifyFunc.
func FuzzResultUnmarshal(f *testing.F) {
	for _, tc := range artifactCases(f) {
		data, err := tc.prog.CKKS.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(version1(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r ckksir.Result
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		if err := ir.VerifyFunc(r.Module.Main()); err != nil {
			t.Fatalf("decoded a module that fails verification: %v", err)
		}
	})
}
