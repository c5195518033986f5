package ckks

import (
	"fmt"
	"math"
	"sort"

	"antace/internal/kswork"
)

// The homomorphic DFTs of bootstrapping, factorised. CoeffsToSlots
// applies the encoder's inverse special FFT to the slot vector and
// SlotsToCoeffs the forward one. Either is log2(slots) layers of radix-2
// butterflies and a bit-reversal; a layer over blocks of length 2h is a
// matrix with three diagonals (0 and ±h), and the product of k
// consecutive layers has at most 2·2^k − 1 diagonals, all on multiples of
// the smallest h among them. A stage is such a product, built by
// multiplying diagonals: no slots × slots matrix exists at any point.
//
// The bit-reversal is left out of both directions. Without it the
// inverse transform delivers its outputs in bit-reversed slot order and
// the forward transform expects its inputs in that order, and everything
// a bootstrap does in between (conjugate split, EvalMod, double angles)
// acts on each slot alone, so the two omissions cancel.

// diagonals is a slots × slots matrix in diagonal form, as in
// LinearTransform.Diags.
type diagonals map[int][]complex128

func (m diagonals) at(d, slots int) []complex128 {
	if m[d] == nil {
		m[d] = make([]complex128, slots)
	}
	return m[d]
}

// sortedKeys fixes the order products are summed in: the stage matrices
// must come out bit-identical in every process, because their encodings
// decide ciphertext bytes.
func (m diagonals) sortedKeys() []int {
	keys := make([]int, 0, len(m))
	for d := range m {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	return keys
}

// butterflyLayer returns one radix-2 layer of the special FFT over blocks
// of the given length, as specialFFT (forward) or specialFFTInv (inverse)
// applies it.
func (e *Encoder) butterflyLayer(slots, length int, inverse bool) diagonals {
	lenh := length >> 1
	m := diagonals{}
	main, up, down := m.at(0, slots), m.at(lenh, slots), m.at(slots-lenh, slots)
	for i := 0; i < slots; i += length {
		for j := 0; j < lenh; j++ {
			w := e.twiddle(length, j, inverse)
			lo, hi := i+j, i+j+lenh
			if inverse {
				// (a, b) -> (a + b, (a − b)·w)
				main[lo], up[lo] = 1, 1
				main[hi], down[hi] = -w, w
			} else {
				// (a, b) -> (a + w·b, a − w·b)
				main[lo], up[lo] = 1, w
				main[hi], down[hi] = -w, 1
			}
		}
	}
	return m
}

// mulDiagonals returns b·a (a applied first):
// (b·a)_d[i] = Σ_{d1+d2=d} b_{d1}[i] · a_{d2}[i+d1].
func mulDiagonals(b, a diagonals, slots int) diagonals {
	out := diagonals{}
	aKeys := a.sortedKeys()
	for _, d1 := range b.sortedKeys() {
		bd := b[d1]
		for _, d2 := range aKeys {
			ad, od := a[d2], out.at((d1+d2)%slots, slots)
			for i := range od {
				od[i] += bd[i] * ad[(i+d1)&(slots-1)] // slots is a power of two
			}
		}
	}
	return out
}

// DFTStages factorises the special FFT over all N/2 slots — the inverse
// one (CoeffsToSlots) or the forward one (SlotsToCoeffs), times the real
// factor scale, without the bit-reversal — into the given number of
// stages, in evaluation order. The radix-2 layers are dealt out by
// kswork.StageLogRadices and the scalar is spread evenly, so that every
// stage's entries have the same magnitude.
func (e *Encoder) DFTStages(inverse bool, stages int, scale float64) ([]*LinearTransform, error) {
	slots := e.params.Slots()
	logSlots := e.params.LogN() - 1
	if stages < 1 || stages > logSlots {
		return nil, fmt.Errorf("ckks: cannot factorise a DFT over %d slots into %d stages", slots, stages)
	}
	if inverse {
		scale /= float64(slots)
	}
	factor := complex(math.Pow(scale, 1/float64(stages)), 0)

	// Layer lengths in evaluation order: the inverse FFT starts with the
	// whole vector, the forward one with pairs.
	lengths := make([]int, logSlots)
	for i := range lengths {
		lengths[i] = 2 << i
		if inverse {
			lengths[i] = slots >> i
		}
	}
	out := make([]*LinearTransform, 0, stages)
	for _, layers := range kswork.StageLogRadices(logSlots, stages) {
		m := e.butterflyLayer(slots, lengths[0], inverse)
		for _, length := range lengths[1:layers] {
			m = mulDiagonals(e.butterflyLayer(slots, length, inverse), m, slots)
		}
		lengths = lengths[layers:]
		for d, diag := range m {
			zero := true
			for i := range diag {
				diag[i] *= factor
				zero = zero && diag[i] == 0
			}
			if zero {
				delete(m, d)
			}
		}
		out = append(out, &LinearTransform{Slots: slots, Diags: m})
	}
	return out, nil
}
