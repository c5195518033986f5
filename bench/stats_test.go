package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}, {0.99, 39.7},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single sample mishandled")
	}
}
