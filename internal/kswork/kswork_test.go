package kswork

import (
	"math"
	"testing"
)

func TestStageShapes(t *testing.T) {
	for logSlots := 1; logSlots <= 15; logSlots++ {
		for stages := 1; stages <= MaxStages && stages <= logSlots; stages++ {
			radices := StageLogRadices(logSlots, stages)
			sum := 0
			for i, lr := range radices {
				sum += lr
				if lr < 1 || (i > 0 && (lr < radices[i-1] || lr > radices[0]+1)) {
					t.Errorf("%d layers in %d stages: %v is not an even, ascending split", logSlots, stages, radices)
				}
			}
			if sum != logSlots {
				t.Errorf("%d layers in %d stages: %v sums to %d", logSlots, stages, radices, sum)
			}
			// The half-length butterfly's stage wraps: r diagonals, first
			// in CoeffsToSlots, last in SlotsToCoeffs; the others 2r−1.
			inv, fwd := StageDiagonals(logSlots, stages, true), StageDiagonals(logSlots, stages, false)
			last := stages - 1
			if inv[0] != 1<<radices[0] || fwd[last] != 1<<radices[last] {
				t.Errorf("%d layers in %d stages: wrapped stages have %d and %d diagonals", logSlots, stages, inv[0], fwd[last])
			}
			if stages > 1 && (inv[last] != 2<<radices[last]-1 || fwd[0] != 2<<radices[0]-1) {
				t.Errorf("%d layers in %d stages: open stages have %d and %d diagonals", logSlots, stages, inv[last], fwd[0])
			}
		}
	}
}

// units sums the kernel units and counts the calls of one linear
// transform's expansion, by primitive.
func units(g Geometry, s Split, level int) (map[string]float64, map[string]int) {
	work, calls := map[string]float64{}, map[string]int{}
	g.Expand(OpLinear, level, s, nil, func(p Prim) {
		work[p.Op] += p.Units
		calls[p.Op] += p.Count
	})
	return work, calls
}

func total(work map[string]float64) float64 {
	return work[PolyDecompModUp] + work[PolyModMulAdd] + work[PolyMaskSum] + work[PolyModDown]
}

// TestLinearTransformWork pins the kernel shape the expansion stands
// for: nothing to decompose without a rotation, one division for the
// whole transform plus half of one per giant step, and less work for a
// stage than for the dense transform it replaces.
func TestLinearTransformWork(t *testing.T) {
	g := Geometry{LogN: 9, K: 6}
	const level = 29
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*b }
	if w, calls := units(g, DFTSplit(1), level); calls[PolyDecompModUp] != 0 || calls[PolyModDown] != 1 || !close(w[PolyModDown], g.ModDown(level)) {
		t.Errorf("one diagonal: %v in %v calls, want no decomposition and one division", w, calls)
	}
	// 31 diagonals: 8 baby steps, 4 groups.
	w, calls := units(g, DFTSplit(31), level)
	if want := 4 * g.ModUp(level); calls[PolyDecompModUp] != 4 || !close(w[PolyDecompModUp], want) {
		t.Errorf("31 diagonals decompose %g units in %d calls, want 1 + 3 decompositions (%g)", w[PolyDecompModUp], calls[PolyDecompModUp], want)
	}
	if want := 2.5 * g.ModDown(level); calls[PolyModDown] != 4 || !close(w[PolyModDown], want) {
		t.Errorf("31 diagonals divide %g units in %d calls, want 1 + 3 halves (%g)", w[PolyModDown], calls[PolyModDown], want)
	}
	if calls[PolyModMulAdd] != 7+3 {
		t.Errorf("31 diagonals take %d key products, want 7 babies + 3 giants", calls[PolyModMulAdd])
	}
	if dense, _ := units(g, DFTSplit(256), level); 2*total(w) >= total(dense) {
		t.Errorf("two 31-diagonal stages (%g units) do not undercut 256 dense diagonals (%g)", 2*total(w), total(dense))
	}
}
