package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antace/internal/fault"
	"antace/internal/serve/api"
)

func TestLatencyEstimator(t *testing.T) {
	est := newLatencyEstimator()
	if _, ok := est.p95("s"); ok {
		t.Fatal("empty estimator reported a p95")
	}
	// Below the sample floor the estimator stays conservative.
	for i := 0; i < hedgeMinSamples-1; i++ {
		est.observe("s", 10*time.Millisecond)
	}
	if _, ok := est.p95("s"); ok {
		t.Fatalf("p95 reported with %d samples, floor is %d", hedgeMinSamples-1, hedgeMinSamples)
	}
	est.observe("s", 10*time.Millisecond)
	if p, ok := est.p95("s"); !ok || p != 10*time.Millisecond {
		t.Fatalf("uniform samples: p95 %v ok=%v", p, ok)
	}
	// 100 samples of 1..100ms: the ceil-rank p95 is the 95th value.
	est.forget("s")
	for i := 1; i <= 100; i++ {
		est.observe("t", time.Duration(i)*time.Millisecond)
	}
	if p, ok := est.p95("t"); !ok || p != 95*time.Millisecond {
		t.Fatalf("1..100ms samples: p95 %v ok=%v, want 95ms", p, ok)
	}
	// The window slides: a shard that got fast pulls its p95 down.
	for i := 0; i < hedgeWindow; i++ {
		est.observe("t", 2*time.Millisecond)
	}
	if p, _ := est.p95("t"); p != 2*time.Millisecond {
		t.Fatalf("after recovery p95 %v, want 2ms", p)
	}
	if _, ok := est.p95("s"); ok {
		t.Fatal("forgotten shard still has samples")
	}
	// The hedge delay clamps the p95 into [hedgeMin, hedgeMax] and is
	// the ceiling until enough samples back it.
	for i := 0; i < hedgeMinSamples; i++ {
		est.observe("u", 10*time.Second)
	}
	if d := est.hedgeDelay("t"); d != hedgeMin {
		t.Fatalf("2ms p95 hedges after %v, want the %v floor", d, hedgeMin)
	}
	if d := est.hedgeDelay("u"); d != hedgeMax {
		t.Fatalf("10s p95 hedges after %v, want the %v ceiling", d, hedgeMax)
	}
	if d := est.hedgeDelay("s"); d != hedgeMax {
		t.Fatalf("unsampled shard hedges after %v, want the %v ceiling", d, hedgeMax)
	}
}

// fakeShard is a minimal shard stand-in for router-only tests: it
// answers /v1/infer with its own marker after a settable delay, and
// /v1/statz with fixed counters (or 500 when failing). Real-shard
// behavior is covered by the e2e suite; these fakes isolate the
// router's hedging race from FHE evaluation time.
type fakeShard struct {
	srv     *httptest.Server
	delayMs atomic.Int64
	status  atomic.Int64 // nonzero: /v1/infer answers this status
	failing atomic.Bool
	hits    atomic.Int64

	mu       sync.Mutex
	idemKeys []string
}

func newFakeShard(t *testing.T, marker string) *fakeShard {
	t.Helper()
	f := &fakeShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathInfer, func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		f.mu.Lock()
		f.idemKeys = append(f.idemKeys, r.Header.Get(api.HeaderIdemKey))
		f.mu.Unlock()
		if st := f.status.Load(); st != 0 {
			w.WriteHeader(int(st))
			return
		}
		if d := f.delayMs.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		_, _ = w.Write([]byte(marker))
	})
	mux.HandleFunc("GET "+api.PathStatz, func(w http.ResponseWriter, r *http.Request) {
		if f.failing.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(api.Statz{Served: 7})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// hedgeFixture wires two fake shards behind a router and returns the
// pieces, with the slow/fast roles assigned by the ring's actual
// placement of sessID so the test never depends on hash luck.
func hedgeFixture(t *testing.T, cfg RouterConfig) (routerURL, sessID string, primary, backup *fakeShard) {
	t.Helper()
	a, b := newFakeShard(t, "answer-a"), newFakeShard(t, "answer-b")
	ring, err := NewRing([]string{a.srv.URL, b.srv.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(ring, cfg)
	ts := httptest.NewServer(rt)
	t.Cleanup(func() { ts.Close(); rt.Close() })
	sessID = "00000000000000000000000000000042"
	owners := ring.LookupN(sessID, 2)
	primary, backup = a, b
	if owners[0] == b.srv.URL {
		primary, backup = b, a
	}
	return ts.URL, sessID, primary, backup
}

func routerInfer(t *testing.T, routerURL, sessID string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, routerURL+api.PathInfer, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderSession, sessID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body [64]byte
	n, _ := resp.Body.Read(body[:])
	return resp.StatusCode, string(body[:n])
}

func routerStatz(t *testing.T, routerURL string) ClusterStatz {
	t.Helper()
	resp, err := http.Get(routerURL + api.PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRouterHedgingSlowPrimary: the primary stalls past the fixed hedge
// delay, the router duplicates the request to the replica with the same
// idempotency key, and the replica's (first) answer is the one relayed.
func TestRouterHedgingSlowPrimary(t *testing.T) {
	routerURL, sessID, primary, backup := hedgeFixture(t, RouterConfig{
		ProbeEvery: -1, HedgeAfter: 20 * time.Millisecond,
	})
	primary.delayMs.Store(2000)

	start := time.Now()
	status, body := routerInfer(t, routerURL, sessID)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged infer: status %d body %q", status, body)
	}
	if backup.hits.Load() == 0 {
		t.Fatal("backup never saw the hedged request")
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %v, the hedge did not cut the stall", elapsed)
	}
	primary.mu.Lock()
	pKeys := append([]string(nil), primary.idemKeys...)
	primary.mu.Unlock()
	backup.mu.Lock()
	bKeys := append([]string(nil), backup.idemKeys...)
	backup.mu.Unlock()
	if len(pKeys) != 1 || len(bKeys) != 1 || pKeys[0] != bKeys[0] || pKeys[0] == "" {
		t.Fatalf("hedge must reuse the idempotency key: primary %v backup %v", pKeys, bKeys)
	}

	st := routerStatz(t, routerURL)
	if st.Router.Hedged == 0 {
		t.Error("ace_hedged_requests stayed 0 across a fired hedge")
	}
	if st.Router.HedgeWins == 0 {
		t.Error("ace_hedge_wins stayed 0 although the backup answered first")
	}
	// The cluster-level quantiles are the router's own: one infer, which
	// waited out the 20ms hedge delay before the backup answered.
	if c := st.Cluster; c.LatencyMsP50 < 20 || c.LatencyMsP99 != c.LatencyMsP50 {
		t.Errorf("cluster latency after one hedged infer: p50 %gms p99 %gms, want both its ≥20ms total",
			c.LatencyMsP50, c.LatencyMsP99)
	}
}

// TestRouterFailoverAsksPrimaryOnce: a primary that answers an infer
// 503 is asked exactly once — the replica goes out the moment that
// answer lands, not after a second round-one try at the primary — and
// the replica's answer is relayed with one failover and no hedge.
func TestRouterFailoverAsksPrimaryOnce(t *testing.T) {
	routerURL, sessID, primary, backup := hedgeFixture(t, RouterConfig{ProbeEvery: -1})
	primary.status.Store(http.StatusServiceUnavailable)

	status, body := routerInfer(t, routerURL, sessID)
	if status != http.StatusOK {
		t.Fatalf("infer past a 503 primary: status %d body %q", status, body)
	}
	if p, b := primary.hits.Load(), backup.hits.Load(); p != 1 || b != 1 {
		t.Fatalf("primary asked %d times, replica %d; want 1 and 1", p, b)
	}
	st := routerStatz(t, routerURL)
	if st.Router.Failovers != 1 || st.Router.Hedged != 0 || st.Router.Forwarded != 1 {
		t.Fatalf("router counters after one failover: %+v", st.Router)
	}
}

// TestRouterHedgeAdaptiveDelay: with no fixed -hedge-after the router
// hedges on the primary's own p95. Warm the estimator with fast
// primary answers, then stall the primary — the adaptive delay is the
// clamped p95, far below the conservative 2s ceiling, so the hedge
// fires and the replica answers.
func TestRouterHedgeAdaptiveDelay(t *testing.T) {
	routerURL, sessID, primary, backup := hedgeFixture(t, RouterConfig{ProbeEvery: -1})
	for i := 0; i < hedgeMinSamples; i++ {
		if status, _ := routerInfer(t, routerURL, sessID); status != http.StatusOK {
			t.Fatalf("warmup %d failed", i)
		}
	}
	if backup.hits.Load() != 0 {
		t.Fatalf("backup hit %d times during fast warmup (conservative delay must hold)", backup.hits.Load())
	}
	primary.delayMs.Store(5000)
	start := time.Now()
	status, _ := routerInfer(t, routerURL, sessID)
	if status != http.StatusOK {
		t.Fatalf("adaptive hedged infer: status %d", status)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("adaptive hedge answered in %v, want well under the primary's 5s stall", elapsed)
	}
	if backup.hits.Load() == 0 {
		t.Fatal("adaptive hedge never fired")
	}
}

// TestRouterHedgeFireFault: the router.hedge.fire chaos point forces the
// hedge immediately, regardless of the (here enormous) configured delay.
func TestRouterHedgeFireFault(t *testing.T) {
	if err := fault.Arm(fault.RouterHedgeFire + ":1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()

	routerURL, sessID, primary, backup := hedgeFixture(t, RouterConfig{
		ProbeEvery: -1, HedgeAfter: time.Hour,
	})
	primary.delayMs.Store(3000)
	start := time.Now()
	status, _ := routerInfer(t, routerURL, sessID)
	if status != http.StatusOK {
		t.Fatalf("forced hedge: status %d", status)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("forced hedge answered in %v", elapsed)
	}
	if backup.hits.Load() == 0 {
		t.Fatal("router.hedge.fire did not force the hedge")
	}
	fired := false
	for _, p := range fault.Snapshot() {
		if p.Point == fault.RouterHedgeFire && p.Fired > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("router.hedge.fire never fired")
	}
}

// TestRouterStatzStaleness: a shard whose scrape fails is named in
// Unreachable and represented by its last successful snapshot with a
// nonzero age — an explicit stale lower bound instead of a silent zero
// in the cluster sums.
func TestRouterStatzStaleness(t *testing.T) {
	routerURL, _, primary, backup := hedgeFixture(t, RouterConfig{ProbeEvery: -1})

	st := routerStatz(t, routerURL)
	if len(st.Unreachable) != 0 {
		t.Fatalf("healthy cluster reported unreachable shards: %v", st.Unreachable)
	}
	if st.Cluster.Served != 14 {
		t.Fatalf("cluster sum %d, want 7+7", st.Cluster.Served)
	}

	backup.failing.Store(true)
	time.Sleep(20 * time.Millisecond) // make the snapshot age observable
	st = routerStatz(t, routerURL)
	if len(st.Unreachable) != 1 || st.Unreachable[0] != backup.srv.URL {
		t.Fatalf("unreachable = %v, want exactly the failing shard", st.Unreachable)
	}
	if st.Cluster.Served != 14 {
		t.Fatalf("cluster sum dropped to %d: the cached snapshot must still count", st.Cluster.Served)
	}
	if age := st.ScrapeAgeSec[backup.srv.URL]; age <= 0 {
		t.Fatalf("stale shard's scrape age = %v, want > 0", age)
	}
	if age := st.ScrapeAgeSec[primary.srv.URL]; age != 0 {
		t.Fatalf("fresh shard's scrape age = %v, want 0", age)
	}
	if _, ok := st.Shards[backup.srv.URL]; !ok {
		t.Fatal("stale shard's last snapshot missing from the per-shard map")
	}
}
