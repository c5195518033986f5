package codegen

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

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

// TestGenerateCompilesAndRuns builds and runs the generated program (real
// keygen + encrypted inference) and checks the slots it prints against
// the simulator of the same compiled model.
func TestGenerateCompilesAndRuns(t *testing.T) {
	linear, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	root, err := moduleRoot()
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
			// Generate into a directory inside the module so the generated
			// code can import the internal packages.
			dir := filepath.Join(root, "gen_test_artifact_"+tc.name)
			t.Cleanup(func() { os.RemoveAll(dir) })
			if err := Generate(c, dir); err != nil {
				t.Fatal(err)
			}
			src, err := os.ReadFile(filepath.Join(dir, "main.go"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), "Code generated") {
				t.Fatal("missing generation header")
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

			run := exec.Command("go", "run", dir, inputFile)
			run.Dir = dir // weights.bin lives here
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("generated program failed: %v\n%s", err, out)
			}
			slots := make([]float64, c.VectorLen())
			printed := strings.Fields(string(out))
			for i, f := range printed {
				if slots[i], err = strconv.ParseFloat(f, 64); err != nil {
					t.Fatalf("unexpected output: %s", out)
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
					t.Fatalf("output %d: generated program %g vs simulator %g", i, got[i], want.Data[i])
				}
			}
		})
	}
}

// TestGenerateKeepsEveryBootstrapField: the generated program rebuilds
// its bootstrapper from the bootParams literal alone, so a field of the
// compiler's choice that the literal drops silently reverts to a default
// there. Every exported field is set to a value of its own and read back
// from the parsed source.
func TestGenerateKeepsEveryBootstrapField(t *testing.T) {
	m, err := onnx.BuildSmallCNN(onnx.SmallCNNConfig{InputSize: 8, Channels: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(m, core.Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{Mode: ckksir.BootstrapAlways, IgnoreSecurity: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.CKKS.Boot == nil {
		t.Fatal("program does not bootstrap")
	}
	boot := reflect.ValueOf(c.CKKS.Boot).Elem()
	want := map[string]string{}
	for i := 0; i < boot.NumField(); i++ {
		f := boot.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int:
			boot.Field(i).SetInt(int64(3 + i))
			want[f.Name] = strconv.Itoa(3 + i)
		case reflect.Float64:
			boot.Field(i).SetFloat(7.5 + float64(i))
			want[f.Name] = strconv.FormatFloat(7.5+float64(i), 'g', -1, 64)
		default:
			t.Fatalf("field %s has kind %s: teach this test to set it", f.Name, f.Type.Kind())
		}
	}

	dir := t.TempDir()
	if err := Generate(c, dir); err != nil {
		t.Fatal(err)
	}
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || spec.Names[0].Name != "bootParams" {
			return true
		}
		lit := spec.Values[0].(*ast.UnaryExpr).X.(*ast.CompositeLit)
		for _, elt := range lit.Elts {
			kv := elt.(*ast.KeyValueExpr)
			got[kv.Key.(*ast.Ident).Name] = kv.Value.(*ast.BasicLit).Value
		}
		return false
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("generated bootParams literal holds %v, compiled program %v", got, want)
	}
}

// moduleRoot walks up to the directory containing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
