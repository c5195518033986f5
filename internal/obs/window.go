package obs

import (
	"math"
	"sort"
	"sync"
)

// Window keeps the most recent observations in a fixed ring and answers
// quantiles over them on demand: O(1) memory and exact over the window.
// It is the one latency window of the stack — the daemon's and the
// router's statz quantiles, the router's per-shard hedge estimator and
// the load generator's report all read it. Safe for concurrent use.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
	n    int
}

// StatzWindow is the sample count behind the /v1/statz latency quantiles
// of the daemon and of the router.
const StatzWindow = 1024

// NewWindow returns a window over the last size (> 0) observations.
func NewWindow(size int) *Window {
	return &Window{buf: make([]float64, size)}
}

// Add records one observation, overwriting the oldest once full.
func (w *Window) Add(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Len returns how many observations the window holds.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile returns the q-quantile of the window, 0 when it is empty.
// Nearest rank with a ceiling: the smallest observation such that at
// least q·n observations are ≤ it. Flooring the rank instead reports p99
// as p90 on a 10-sample window — hiding the outlier in exactly the
// quantile that exists to expose outliers.
func (w *Window) Quantile(q float64) float64 {
	w.mu.Lock()
	sample := append([]float64(nil), w.buf[:w.n]...)
	w.mu.Unlock()
	if len(sample) == 0 {
		return 0
	}
	sort.Float64s(sample)
	rank := int(math.Ceil(q * float64(len(sample))))
	rank = max(1, min(rank, len(sample)))
	return sample[rank-1]
}
