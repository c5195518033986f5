package vm

import (
	"math"
	"sync"
	"testing"

	"antace/internal/ckks"
	"antace/internal/ring"
)

// TestClientConcurrent: one key holder serves eight goroutines that
// encrypt, decrypt and generate keys at once, as fheclient's concurrent
// Infer calls do; every round trip returns its own input, and a lane out
// of range is an error, not a panic. make race runs it raced.
func TestClientConcurrent(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 8, LogQ: []int{50, 40}, LogP: []int{50}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	const vecLen, stride = 16, 8 // 128 slots
	lay := Layout{VecLen: vecLen, Level: 1, Scale: math.Exp2(40), Stride: 3}
	if _, err := NewClient(params, ckks.NewEncoder(params), lay, nil); err == nil {
		t.Fatal("a stride that does not lay the vector over the slots was accepted")
	}
	lay.Stride = stride
	c, err := NewClient(params, ckks.NewEncoder(params), lay, ring.SeedFromInt(81))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 4 {
				in := randomInput(vecLen, uint64(10*g+rep))
				ct, err := c.Encrypt(in)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := c.DecryptLane(ct, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range in {
					if math.Abs(got[i]-in[i]) > 1e-6 {
						t.Errorf("goroutine %d: slot %d decrypts to %g, encrypted %g", g, i, got[i], in[i])
						return
					}
				}
				if _, err := c.DecryptLane(ct, stride); err == nil {
					t.Errorf("goroutine %d: lane %d of stride %d decrypted", g, stride, stride)
				}
				if g%4 == 0 {
					c.Keys(KeySet{Rotations: []int{stride}})
				}
			}
		}()
	}
	wg.Wait()
}
