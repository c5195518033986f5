package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	ace "antace"
	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
)

// gemmTanh is a single Gemm followed by Tanh: the smallest model whose
// compiled program carries a Chebyshev polynomial on a general [a,b].
func gemmTanh(t *testing.T) *onnx.Model {
	rng := rand.New(rand.NewPCG(5, 6))
	b := onnx.NewBuilder("gemm_tanh")
	x := b.Input("image", 1, 16)
	w := tensor.New(4, 16)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.5
	}
	h := b.Gemm(x, b.Weight("w", w), b.Weight("b", tensor.New(4)))
	b.Output(b.Node("Tanh", []string{h}), 1, 4)
	m := b.Model()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunnerMatchesSim writes the artifact `ace compile` writes, runs it
// on an unpacked input tensor (real keygen and encrypted inference) and
// checks the outputs it prints against the cleartext model (nnir.Run).
// Without an input file it prints as many outputs from its default
// tensor.
func TestRunnerMatchesSim(t *testing.T) {
	linear, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *onnx.Model
		sihe  sihe.Options
		tol   float64 // CKKS noise, plus the degree-15 Tanh approximation
	}{
		{"linear", linear, sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125}, 1e-3},
		{"gemm_tanh", gemmTanh(t), sihe.Options{SmoothDegree: 15}, 5e-2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.model, core.Config{
				SIHE: tc.sihe,
				CKKS: ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true, LogScale: 40},
			})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := ace.WriteArtifact(c, dir); err != nil {
				t.Fatal(err)
			}
			program := filepath.Join(dir, "program.ace")

			in := c.Vec.InLayout
			img := tensor.New(in.C, in.H, in.W)
			for i := range img.Data {
				img.Data[i] = math.Sin(float64(i+1)) * 0.5
			}
			raw := make([]byte, 8*len(img.Data))
			for i, v := range img.Data {
				binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
			}
			inputFile := filepath.Join(dir, "input.bin")
			if err := os.WriteFile(inputFile, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			got := runOutputs(t, program, inputFile)
			nn := c.NN.Main()
			x := tensor.FromData(img.Data, nn.Params[0].Type.Shape...)
			want, err := nnir.Run(nn, map[string]*tensor.Tensor{nn.Params[0].Name: x})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Data) {
				t.Fatalf("runner printed %d outputs, the model has %d", len(got), len(want.Data))
			}
			for i := range want.Data {
				if math.Abs(got[i]-want.Data[i]) > tc.tol {
					t.Fatalf("output %d: runner %g vs cleartext model %g", i, got[i], want.Data[i])
				}
			}
			if def := runOutputs(t, program); len(def) != len(want.Data) {
				t.Fatalf("with its default input the runner printed %d outputs, want %d", len(def), len(want.Data))
			}
		})
	}
}

// runOutputs runs the runner and parses the values it prints.
func runOutputs(t *testing.T, args ...string) []float64 {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var vals []float64
	for _, f := range strings.Fields(out.String()) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatalf("unexpected output: %s", out.String())
		}
		vals = append(vals, v)
	}
	return vals
}

// TestRunnerRefusesBadInput: a wrong-sized input file and a file that is
// not an artifact are errors, not panics.
func TestRunnerRefusesBadInput(t *testing.T) {
	m, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ace.Compile(m, ace.TestProfile())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ace.WriteArtifact(c, dir); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(short, make([]byte, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{filepath.Join(dir, "program.ace"), short}, &bytes.Buffer{}); err == nil {
		t.Fatal("a one-value input was accepted")
	}
	if err := run([]string{short}, &bytes.Buffer{}); err == nil {
		t.Fatal("a non-artifact was accepted")
	}
}
