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
// (real keygen and encrypted inference) and checks the slots it prints
// against the simulator of the same compiled model.
func TestRunnerMatchesSim(t *testing.T) {
	linear, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *onnx.Model
		sihe  sihe.Options
	}{
		{"linear", linear, sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125}},
		{"gemm_tanh", gemmTanh(t), sihe.Options{SmoothDegree: 15}},
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

			in := c.Vec.InLayout
			img := tensor.New(in.C, in.H, in.W)
			for i := range img.Data {
				img.Data[i] = math.Sin(float64(i+1)) * 0.5
			}
			packed, err := in.Pack(img.Data)
			if err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, 8*len(packed))
			for i, v := range packed {
				binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
			}
			inputFile := filepath.Join(dir, "input.bin")
			if err := os.WriteFile(inputFile, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			var out bytes.Buffer
			if err := run([]string{filepath.Join(dir, "program.ace"), inputFile}, &out); err != nil {
				t.Fatal(err)
			}
			printed := strings.Fields(out.String())
			slots := make([]float64, c.VectorLen())
			for i, f := range printed {
				if slots[i], err = strconv.ParseFloat(f, 64); err != nil {
					t.Fatalf("unexpected output: %s", out.String())
				}
			}
			got, err := c.Vec.OutLayout.Unpack(slots)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.RunSim(img)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if s := c.Vec.OutLayout.Slot(i, 0, 0); s >= len(printed) {
					t.Fatalf("output %d lives in slot %d, beyond the %d printed", i, s, len(printed))
				}
				if math.Abs(got[i]-want.Data[i]) > 1e-2 {
					t.Fatalf("output %d: runner %g vs simulator %g", i, got[i], want.Data[i])
				}
			}
		})
	}
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
