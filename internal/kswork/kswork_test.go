package kswork

import "testing"

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

// TestLinearTransformWork pins the kernel shape the count stands for:
// nothing to decompose without a rotation, one division for the whole
// transform plus half of one per giant step, and less work for a stage
// than for the dense transform it replaces.
func TestLinearTransformWork(t *testing.T) {
	g := Geometry{LogN: 9, K: 6}
	const level = 29
	if w := g.LinearTransform(1, level); w.ModUp != 0 || w.ModDown != g.ModDown(level) {
		t.Errorf("one diagonal: %+v, want no decomposition and one division", w)
	}
	// 31 diagonals: 8 baby steps, 4 groups.
	w := g.LinearTransform(31, level)
	if want := 4 * g.ModUp(level); w.ModUp != want {
		t.Errorf("31 diagonals decompose %g units, want 1 + 3 decompositions (%g)", w.ModUp, want)
	}
	if want := 2.5 * g.ModDown(level); w.ModDown != want {
		t.Errorf("31 diagonals divide %g units, want 1 + 3 halves (%g)", w.ModDown, want)
	}
	if dense := g.LinearTransform(256, level); 2*w.Units() >= dense.Units() {
		t.Errorf("two 31-diagonal stages (%g units) do not undercut 256 dense diagonals (%g)", 2*w.Units(), dense.Units())
	}
}
