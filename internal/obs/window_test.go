package obs

import "testing"

// TestQuantilesCeilRank pins the nearest-rank-with-ceiling definition:
// the q-quantile is the smallest sample with at least q·n samples ≤ it.
// The old floor-rank code reported p99 of a 10-sample window as the 9th
// value — systematically hiding the very outlier p99 exists to surface.
func TestQuantilesCeilRank(t *testing.T) {
	cases := []struct {
		name          string
		size          int
		add           []float64
		p50, p90, p99 float64
	}{
		{
			name: "empty window reports zeros",
			size: 8,
		},
		{
			name: "single sample is every quantile",
			size: 8,
			add:  []float64{7},
			p50:  7, p90: 7, p99: 7,
		},
		{
			// ceil(0.5·10)=5 → 5ms; ceil(0.9·10)=9 → 9ms; ceil(0.99·10)=10
			// → the maximum. Floor-rank gave 9ms for p99 here.
			name: "ten samples: p99 is the max",
			size: 16,
			add:  []float64{10, 3, 7, 1, 9, 5, 2, 8, 4, 6},
			p50:  5, p90: 9, p99: 10,
		},
		{
			// Six inserts into a 4-slot ring: 1ms and 2ms are overwritten,
			// the window holds {3,4,5,6}. ceil(0.5·4)=2 → 4ms;
			// ceil(0.9·4)=4 and ceil(0.99·4)=4 → 6ms.
			name: "wrap-around keeps only the newest samples",
			size: 4,
			add:  []float64{1, 2, 3, 4, 5, 6},
			p50:  4, p90: 6, p99: 6,
		},
		{
			// Two samples: p50 is the smaller (ceil(0.5·2)=1), p90/p99 the
			// larger.
			name: "two samples split at the median",
			size: 8,
			add:  []float64{20, 10},
			p50:  10, p90: 20, p99: 20,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(tc.size)
			for _, d := range tc.add {
				w.Add(d)
			}
			if w.Len() != min(len(tc.add), tc.size) {
				t.Errorf("Len() = %d after %d adds into %d slots", w.Len(), len(tc.add), tc.size)
			}
			p50, p90, p99 := w.Quantile(0.50), w.Quantile(0.90), w.Quantile(0.99)
			if p50 != tc.p50 || p90 != tc.p90 || p99 != tc.p99 {
				t.Errorf("quantiles = %g/%g/%g, want %g/%g/%g",
					p50, p90, p99, tc.p50, tc.p90, tc.p99)
			}
		})
	}
}

// TestQuantilesWrapReadsFullRing: after exactly size inserts the window
// is full; quantiles must read the whole ring, not just the prefix
// before next wrapped to 0.
func TestQuantilesWrapReadsFullRing(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 4; i++ {
		w.Add(float64(i))
	}
	p50, p99 := w.Quantile(0.50), w.Quantile(0.99)
	if p50 != 2 || p99 != 4 {
		t.Errorf("full ring quantiles p50=%g p99=%g, want 2 and 4", p50, p99)
	}
}

// TestWindowOverflowOrder: sixteen adds into eight slots keep 9..16, and
// the quantiles come out ordered and inside that range.
func TestWindowOverflowOrder(t *testing.T) {
	w := NewWindow(8)
	for i := 1; i <= 16; i++ {
		w.Add(float64(i))
	}
	p50, p90, p99 := w.Quantile(0.50), w.Quantile(0.90), w.Quantile(0.99)
	if p50 < 9 || p50 > 16 || p90 < p50 || p99 < p90 {
		t.Fatalf("quantiles out of order or range: %g %g %g", p50, p90, p99)
	}
}
