package ckks

import (
	"fmt"
	"testing"

	"antace/internal/kswork"
)

// TestDFTStagesMatchSpecialFFT: for every ring from 8 slots (the smallest
// the parameters allow) to 4096 and every stage count, chaining the stage
// matrices on a cleartext vector is the encoder's special FFT up to the
// bit-reversal both directions leave out, each stage has the diagonals
// kswork prices it with and splits into the n1 − 1 baby and n2 − 1 giant
// rotations kswork counts, and the two directions undo each other. One
// stage over more than 1024 slots is the dense matrix itself (16 M
// entries and up) and is left to the smaller rings.
func TestDFTStagesMatchSpecialFFT(t *testing.T) {
	for logN := 4; logN <= 13; logN++ {
		params, err := NewParameters(ParametersLiteral{LogN: logN, LogQ: []int{50, 40}, LogP: []int{50, 50}, LogScale: 40})
		if err != nil {
			t.Fatal(err)
		}
		enc := NewEncoder(params)
		slots, logSlots := params.Slots(), logN-1
		in := randomComplexVector(slots, 1, uint64(logN))
		for stages := 1; stages <= kswork.MaxStages && stages <= logSlots; stages++ {
			if stages == 1 && slots > 1024 {
				continue
			}
			t.Run(fmt.Sprintf("slots-%d/stages-%d", slots, stages), func(t *testing.T) {
				chain := func(inverse bool, v []complex128) []complex128 {
					lts, err := enc.DFTStages(inverse, stages, 1)
					if err != nil {
						t.Fatal(err)
					}
					want := kswork.StageDiagonals(logSlots, stages, inverse)
					for i, lt := range lts {
						if len(lt.Diags) != want[i] {
							t.Errorf("inverse %v stage %d: %d diagonals, priced as %d", inverse, i, len(lt.Diags), want[i])
						}
						index := lt.babyGiant()
						babies := map[int]bool{}
						for _, bs := range index {
							for _, b := range bs {
								babies[b] = true
							}
						}
						delete(babies, 0)
						giants := len(index)
						if _, ok := index[0]; ok {
							giants--
						}
						if n1, n2 := kswork.BabySteps(want[i]), kswork.GiantSteps(want[i]); len(babies) != n1-1 || giants != n2-1 {
							t.Errorf("inverse %v stage %d: %d baby and %d giant rotations, priced as %d and %d", inverse, i, len(babies), giants, n1-1, n2-1)
						}
						v = lt.MulVec(v)
					}
					return v
				}
				tol := 1e-9 * float64(slots) // forward outputs grow with the slot count

				// Inverse: the chain's output is the bit-reversed FFT output.
				got := chain(true, in)
				bitReversePermute(got)
				want := append([]complex128(nil), in...)
				enc.specialFFTInv(want)
				if e := maxErr(got, want); e > 1e-9 {
					t.Errorf("inverse stages differ from specialFFTInv by %.3e", e)
				}
				// Forward: the chain expects its input bit-reversed.
				rev := append([]complex128(nil), in...)
				bitReversePermute(rev)
				got = chain(false, rev)
				want = append([]complex128(nil), in...)
				enc.specialFFT(want)
				if e := maxErr(got, want); e > tol {
					t.Errorf("forward stages differ from specialFFT by %.3e", e)
				}
				// Both without the bit-reversal: the identity.
				if e := maxErr(chain(false, chain(true, in)), in); e > 1e-9 {
					t.Errorf("SlotsToCoeffs after CoeffsToSlots is off the identity by %.3e", e)
				}
			})
		}
	}
	params, _ := NewParameters(ParametersLiteral{LogN: 4, LogQ: []int{50, 40}, LogP: []int{50, 50}, LogScale: 40})
	for _, stages := range []int{0, 4} {
		if _, err := NewEncoder(params).DFTStages(true, stages, 1); err == nil {
			t.Errorf("%d stages over 8 slots accepted", stages)
		}
	}
}
