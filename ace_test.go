package ace

import (
	"math"
	"strings"
	"testing"

	"antace/internal/onnx"
	"antace/internal/tensor"
)

func TestFacadeEndToEnd(t *testing.T) {
	model, err := onnx.BuildLinear(32, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(model, TestProfile())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog)
	if err != nil {
		t.Fatal(err)
	}
	image := tensor.New(1, 32)
	for i := range image.Data {
		image.Data[i] = math.Sin(float64(i)) / 2
	}
	enc, err := rt.Infer(image)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InferPlain(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := InferSim(prog, image)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Data {
		if math.Abs(enc.Data[i]-plain.Data[i]) > 1e-3 {
			t.Fatalf("output %d: encrypted %g vs plaintext %g", i, enc.Data[i], plain.Data[i])
		}
		if math.Abs(sim.Data[i]-plain.Data[i]) > 1e-9 {
			t.Fatalf("output %d: simulator %g vs plaintext %g", i, sim.Data[i], plain.Data[i])
		}
	}
	if rt.KeyCount() == 0 {
		t.Fatal("no rotation keys generated")
	}
	var sb strings.Builder
	Describe(prog, &sb)
	if !strings.Contains(sb.String(), "logN") {
		t.Fatal("Describe output incomplete")
	}
}

func TestFacadeONNXFileRoundTrip(t *testing.T) {
	model, _ := onnx.BuildSmallCNN(onnx.SmallCNNConfig{})
	path := t.TempDir() + "/m.onnx"
	if err := SaveONNX(model, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadONNX(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(back, TestProfile()); err != nil {
		t.Fatal(err)
	}
}

func TestPaperProfileSelectsSecureParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles at paper scale")
	}
	model, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperProfile()
	cfg.SkipPoly = true
	prog, err := Compile(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lit := prog.CKKS.Literal
	if lit.LogN != 16 || lit.LogQ[0] != 60 || lit.LogScale != 56 {
		t.Fatalf("Table 10 mismatch: logN=%d logQ0=%d logD=%d", lit.LogN, lit.LogQ[0], lit.LogScale)
	}
	// With two special primes the modulus is 34 bits below the 128-bit
	// bound at logN 16: a third would cost a ring degree, so there is none.
	if len(lit.LogP) != 2 {
		t.Fatalf("paper-scale ResNet-20 got %d special primes, want 2", len(lit.LogP))
	}
}
