package cluster

import (
	"sync"
	"time"

	"antace/internal/obs"
)

// Adaptive hedging. The delay is the router's own per-shard p95
// observation clamped to [hedgeMin, hedgeMax]; until a shard has
// hedgeMinSamples observations the estimator answers the conservative
// maximum, so a cold router never hedges eagerly.
const (
	hedgeMin = 20 * time.Millisecond
	hedgeMax = 2 * time.Second

	hedgeWindow     = 256
	hedgeMinSamples = 8
	hedgeQuantile   = 0.95
)

// latencyEstimator keeps a sliding window of observed infer latencies
// (milliseconds) per shard. Hedge-won requests record their *total*
// latency against the primary that failed to answer — otherwise a
// uniformly slow shard would teach the estimator its own slowness and
// hedging would stop firing exactly where it pays most.
type latencyEstimator struct {
	mu     sync.Mutex
	shards map[string]*obs.Window
}

func newLatencyEstimator() *latencyEstimator {
	return &latencyEstimator{shards: make(map[string]*obs.Window)}
}

func (e *latencyEstimator) observe(shard string, d time.Duration) {
	if shard == "" || d < 0 {
		return
	}
	e.mu.Lock()
	w := e.shards[shard]
	if w == nil {
		w = obs.NewWindow(hedgeWindow)
		e.shards[shard] = w
	}
	e.mu.Unlock()
	w.Add(float64(d) / float64(time.Millisecond))
}

// p95 returns the shard's windowed p95 latency and whether enough
// samples back it.
func (e *latencyEstimator) p95(shard string) (time.Duration, bool) {
	e.mu.Lock()
	w := e.shards[shard]
	e.mu.Unlock()
	if w == nil || w.Len() < hedgeMinSamples {
		return 0, false
	}
	return time.Duration(w.Quantile(hedgeQuantile) * float64(time.Millisecond)), true
}

// hedgeDelay is the adaptive hedge delay for a primary: its p95 clamped
// to [hedgeMin, hedgeMax], and hedgeMax until enough samples back it.
func (e *latencyEstimator) hedgeDelay(primary string) time.Duration {
	p95, ok := e.p95(primary)
	if !ok {
		return hedgeMax
	}
	return min(max(p95, hedgeMin), hedgeMax)
}

// forget drops a shard's window (it left the ring; a rejoin should not
// inherit stale observations).
func (e *latencyEstimator) forget(shard string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.shards, shard)
}
