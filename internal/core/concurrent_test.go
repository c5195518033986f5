package core_test

import (
	"crypto/sha256"
	"sync"
	"testing"

	ace "antace"
	"antace/internal/core"
	"antace/internal/onnx"
)

// TestConcurrentCompilesMatchSerial compiles reduced ResNet-8 and
// ResNet-20 from several goroutines at once, each pair of goroutines
// sharing one ONNX model, and holds every artifact to the serial
// compile's bytes: the lowerings keep their scratch arrays and value
// tables per call, so compiles running side by side share nothing they
// write (make race runs this under the race detector).
func TestConcurrentCompilesMatchSerial(t *testing.T) {
	artifact := func(m *onnx.Model) ([32]byte, error) {
		p, err := core.Compile(m, ace.TestProfile())
		if err != nil {
			return [32]byte{}, err
		}
		raw, err := p.CKKS.MarshalBinary()
		if err != nil {
			return [32]byte{}, err
		}
		return sha256.Sum256(raw), nil
	}
	const perModel = 3
	var models []*onnx.Model
	var want [][32]byte
	for _, depth := range []int{8, 20} {
		m, err := onnx.BuildResNet(onnx.ResNetConfig{Depth: depth, InputSize: 8, BaseChannels: 4})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := artifact(m)
		if err != nil {
			t.Fatal(err)
		}
		models, want = append(models, m), append(want, sum)
	}
	got := make([][32]byte, len(models)*perModel)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = artifact(models[i%len(models)])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i%len(models)] {
			t.Errorf("concurrent compile %d of model %d: artifact %x, serial compile %x", i/len(models), i%len(models), got[i], want[i%len(models)])
		}
	}
}
