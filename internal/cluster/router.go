package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"antace/internal/fault"
	"antace/internal/fheclient"
	"antace/internal/obs"
	"antace/internal/serve/api"
)

// Router is the stateless cluster front: it consistent-hashes session
// ids across the aced shards, forwards registration and inference with
// retry and failover, and aggregates the shards' metrics, statz and
// profilez pages cluster-wide. It keeps no per-session state of its own
// — placement is recomputed from the id on every request, so any number
// of router replicas can run behind one load balancer.
//
// Failover invariant: a session's key bundle lives on its primary shard
// AND the ring successor (the shards replicate synchronously at
// registration), so when the primary is dead, draining or freshly
// restarted-empty the router re-routes to the successor and the request
// succeeds with zero client re-registration. The router mints an
// idempotency key for keyless inferences, making its own cross-shard
// retries exactly-once.
type Router struct {
	mem *Membership
	hc  *http.Client
	log *slog.Logger
	pol fheclient.RetryPolicy
	mux *http.ServeMux

	// Hedging: when the primary has not answered an infer within the
	// hedge delay (fixed, or the shard's observed p95), the same request
	// — same idempotency key — races to the replica and the first answer
	// wins. hedgeAfter < 0 disables; 0 selects the adaptive estimate.
	hedgeAfter time.Duration
	est        *latencyEstimator
	// lat is the latency (ms) of every infer answered with a 200: the
	// cluster-level quantiles of /v1/statz.
	lat *obs.Window

	// Health prober: shards answering /v1/readyz 200 are preferred
	// targets; unready ones are skipped while any alternative exists
	// (but still tried as a last resort — the prober is advisory).
	probeEvery time.Duration
	mu         sync.RWMutex
	unready    map[string]bool

	// Per-shard statz scrape cache: an unreachable shard's last good
	// snapshot still counts toward cluster totals (a stale lower bound
	// beats a silent zero) and its staleness is reported explicitly.
	scrapeMu  sync.Mutex
	lastStatz map[string]scrapedStatz

	// The router's counters; only the per-shard request map needs a lock.
	stats struct {
		forwarded, failovers, errors, hedged, hedgeWins atomic.Uint64

		mu            sync.Mutex
		shardRequests map[string]uint64
	}

	stop chan struct{}
	wg   sync.WaitGroup
}

type scrapedStatz struct {
	at time.Time
	st api.Statz
}

// RouterConfig tunes a Router; zero values select the noted defaults.
type RouterConfig struct {
	// HTTPClient used for all shard traffic (default: dedicated client,
	// 5m timeout — inference requests legitimately run minutes).
	HTTPClient *http.Client
	// Retry paces cross-shard failover (default fheclient.DefaultRetryPolicy).
	Retry fheclient.RetryPolicy
	// ProbeEvery is the readiness poll period (default 500ms; negative
	// disables probing and every candidate is always tried in ring order).
	ProbeEvery time.Duration
	// Logger receives forward/failover events; nil discards.
	Logger *slog.Logger

	// HedgeAfter is the infer hedging delay: 0 (the default) hedges
	// adaptively at the primary's observed p95 latency, clamped to
	// [20ms, 2s]; a positive value hedges at that fixed delay; a negative
	// value disables hedging.
	HedgeAfter time.Duration
}

// RouterStatz is the router's own half of the aggregated statz page.
type RouterStatz struct {
	Forwarded uint64 `json:"forwarded"`
	Failovers uint64 `json:"failovers"`
	Errors    uint64 `json:"errors"`
	// Hedged counts infer requests that fired a duplicate to the replica
	// after the hedge delay; HedgeWins counts those the replica answered
	// first (the hedge actually cut latency).
	Hedged    uint64 `json:"hedged"`
	HedgeWins uint64 `json:"hedge_wins"`
	// Epoch is the committed membership epoch the router is serving.
	Epoch uint64 `json:"epoch"`
	// ShardRequests counts requests the router sent to each shard
	// (attempts, not successes — a failover counts against both shards).
	ShardRequests map[string]uint64 `json:"shard_requests"`
	// Ready is the prober's current view of each shard.
	Ready map[string]bool `json:"ready"`
}

// ClusterStatz is returned by the router's GET /v1/statz: the router's
// own counters, per-shard statz snapshots, and cluster-wide sums of the
// shards' monotone counters (Cluster's latency quantiles are the
// router's own observations). An unreachable shard is named in
// Unreachable and contributes its last successful scrape (aged per
// ScrapeAgeSec) to Shards and Cluster — a stale lower bound, never a
// silent zero.
type ClusterStatz struct {
	Router  RouterStatz          `json:"router"`
	Cluster api.Statz            `json:"cluster"`
	Shards  map[string]api.Statz `json:"shards"`
	// Unreachable lists ring members whose statz scrape failed just now.
	Unreachable []string `json:"unreachable,omitempty"`
	// ScrapeAgeSec is the age of each shard's snapshot in Shards: 0 for a
	// fresh scrape, the time since the last successful one otherwise.
	ScrapeAgeSec map[string]float64 `json:"scrape_age_sec,omitempty"`
}

// NewRouter builds a router over the given shard ring and starts its
// readiness prober; Close stops it.
func NewRouter(ring *Ring, cfg RouterConfig) *Router {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	probe := cfg.ProbeEvery
	if probe == 0 {
		probe = 500 * time.Millisecond
	}
	mem := &Membership{ring: ring}
	rt := &Router{
		mem:        mem,
		hc:         hc,
		log:        log,
		pol:        cfg.Retry.WithDefaults(),
		hedgeAfter: cfg.HedgeAfter,
		est:        newLatencyEstimator(),
		lat:        obs.NewWindow(obs.StatzWindow),
		probeEvery: probe,
		unready:    map[string]bool{},
		lastStatz:  map[string]scrapedStatz{},
		stop:       make(chan struct{}),
	}
	rt.stats.shardRequests = map[string]uint64{}

	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathProgram, rt.handleProgram)
	mux.HandleFunc("POST "+api.PathSessions, rt.handleRegister)
	mux.HandleFunc("DELETE "+api.PathSessions+"/{id}", rt.handleDrop)
	mux.HandleFunc("POST "+api.PathInfer, rt.handleInfer)
	mux.HandleFunc("GET "+api.PathHealthz, rt.handleHealthz)
	mux.HandleFunc("GET "+api.PathReadyz, rt.handleReadyz)
	mux.HandleFunc("GET "+api.PathStatz, rt.handleStatz)
	mux.HandleFunc("GET "+api.PathProfilez, rt.handleProfilez)
	mux.HandleFunc("GET "+api.PathMetrics, rt.handleMetrics)
	mux.HandleFunc("GET "+api.PathClusterMembership, rt.handleClusterMembership)
	mux.HandleFunc("POST "+api.PathClusterJoin, rt.handleClusterJoin)
	mux.HandleFunc("POST "+api.PathClusterLeave, rt.handleClusterLeave)
	rt.mux = mux

	if probe > 0 {
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt
}

// curRing returns the committed membership ring; placements are always
// computed against the epoch the cluster has actually adopted.
func (rt *Router) curRing() *Ring {
	_, ring := rt.mem.Current()
	return ring
}

// Membership returns the router's committed membership view.
func (rt *Router) Membership() api.Membership { return rt.mem.View() }

// ServeHTTP dispatches to the router API.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the readiness prober.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.wg.Wait()
}

// --- readiness probing ---------------------------------------------------

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	rt.probeOnce()
	t := time.NewTicker(rt.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeOnce()
		}
	}
}

func (rt *Router) probeOnce() {
	members := rt.curRing().Endpoints()
	var wg sync.WaitGroup
	for _, ep := range members {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			ready := false
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+api.PathReadyz, nil)
			if err == nil {
				if resp, err := rt.hc.Do(req); err == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
					resp.Body.Close()
					ready = resp.StatusCode == http.StatusOK
				}
			}
			rt.mu.Lock()
			was := !rt.unready[ep]
			rt.unready[ep] = !ready
			rt.mu.Unlock()
			if was != ready {
				rt.log.Info("router.shard", slog.String("shard", ep), slog.Bool("ready", ready))
			}
		}(ep)
	}
	wg.Wait()
}

// forgetShard clears per-shard prober and estimator state after a member
// left the ring.
func (rt *Router) forgetShard(ep string) {
	rt.mu.Lock()
	delete(rt.unready, ep)
	rt.mu.Unlock()
	rt.est.forget(ep)
}

// orderCandidates returns the candidates with ready shards first,
// preserving ring order within each class: preference, not exclusion —
// with a stale prober view the unready ones are still tried last.
func (rt *Router) orderCandidates(candidates []string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ordered := make([]string, 0, len(candidates))
	for _, ep := range candidates {
		if !rt.unready[ep] {
			ordered = append(ordered, ep)
		}
	}
	for _, ep := range candidates {
		if rt.unready[ep] {
			ordered = append(ordered, ep)
		}
	}
	return ordered
}

// --- membership ----------------------------------------------------------

// join runs the full join transition: propose the ring with endpoint
// added, broadcast the update to every member (the joiner included — the
// broadcast is what hands it the authoritative ring), wait for each ACK
// (existing holders re-replicate the ownership delta before answering),
// then commit the epoch.
func (rt *Router) join(endpoint string) (api.Membership, error) {
	return rt.mem.Join(endpoint, func(update api.ClusterUpdate) error {
		return rt.broadcastUpdate(update, nil)
	})
}

// leave runs the drain (or, with force, ejection) transition. A drain
// contacts the leaver first: it re-ships everything it holds and begins
// handoff before the survivors adopt the ring. An ejection never
// contacts the dead shard.
func (rt *Router) leave(endpoint string, force bool) (api.Membership, error) {
	return rt.mem.Leave(endpoint, force, func(update api.ClusterUpdate) error {
		var firstTargets []string
		if !force {
			firstTargets = []string{endpoint}
		}
		return rt.broadcastUpdate(update, firstTargets)
	})
}

// broadcastUpdate POSTs the proposed update to first (in order, each
// must ACK) and then to every update.Members concurrently, requiring an
// ACK from each: an ACK means the shard adopted the ring and finished
// re-shipping its share of the ownership delta, which is exactly the
// condition for committing the epoch.
func (rt *Router) broadcastUpdate(update api.ClusterUpdate, first []string) error {
	body, err := json.Marshal(update)
	if err != nil {
		return err
	}
	push := func(ep string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		res, err := rt.roundTrip(ctx, ep, http.MethodPost, api.PathClusterUpdate, http.Header{"Content-Type": []string{"application/json"}}, body)
		if err != nil {
			return fmt.Errorf("cluster update to %s: %w", ep, err)
		}
		if res.status != http.StatusOK {
			return fmt.Errorf("cluster update to %s: status %d: %s", ep, res.status, truncateBody(res.body))
		}
		var reply api.ClusterUpdateReply
		if err := json.Unmarshal(res.body, &reply); err != nil {
			return fmt.Errorf("cluster update to %s: bad ack: %w", ep, err)
		}
		if reply.Epoch < update.Epoch {
			return fmt.Errorf("cluster update to %s: acked stale epoch %d < %d", ep, reply.Epoch, update.Epoch)
		}
		rt.log.Info("router.cluster.update.ack", slog.String("shard", ep),
			slog.Uint64("epoch", reply.Epoch), slog.Int("reshipped", reply.Reshipped))
		return nil
	}
	seen := map[string]bool{}
	for _, ep := range first {
		seen[ep] = true
		if err := push(ep); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(update.Members))
	for _, ep := range update.Members {
		if seen[ep] {
			continue
		}
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			if err := push(ep); err != nil {
				errs <- err
			}
		}(ep)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func truncateBody(b []byte) string {
	const n = 512
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

func (rt *Router) handleClusterMembership(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, rt.mem.View())
}

func (rt *Router) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBody))
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	jr, err := ParseJoin(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := rt.join(jr.Endpoint)
	switch {
	case errors.Is(err, ErrNoChange):
		api.WriteJSON(w, http.StatusOK, view) // already a member: idempotent
	case err != nil:
		api.WriteError(w, http.StatusBadGateway, "%v", err)
	default:
		rt.log.Info("router.cluster.join", slog.String("shard", jr.Endpoint), slog.Uint64("epoch", view.Epoch))
		api.WriteJSON(w, http.StatusOK, view)
	}
}

func (rt *Router) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBody))
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	lr, err := ParseLeave(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := rt.leave(lr.Endpoint, lr.Force)
	switch {
	case errors.Is(err, ErrNoChange):
		api.WriteJSON(w, http.StatusOK, view) // already gone: idempotent
	case err != nil:
		api.WriteError(w, http.StatusBadGateway, "%v", err)
	default:
		rt.forgetShard(lr.Endpoint)
		rt.log.Info("router.cluster.leave", slog.String("shard", lr.Endpoint),
			slog.Bool("force", lr.Force), slog.Uint64("epoch", view.Epoch))
		api.WriteJSON(w, http.StatusOK, view)
	}
}

// --- forwarding ----------------------------------------------------------

// fwdResult is one shard's complete buffered response.
type fwdResult struct {
	status int
	header http.Header
	body   []byte
}

// maxRouterBody bounds any single body the router buffers (bundles and
// ciphertexts both; buffering is what makes cross-shard retry possible).
const maxRouterBody = 1 << 30

// copiedHeaders are the response headers relayed back to the client.
var copiedHeaders = []string{
	"Content-Type", "Retry-After",
	api.HeaderTrace, api.HeaderIdemReplayed, api.HeaderLane, api.HeaderLaneStride,
}

// forward sends one request to candidates until a shard answers
// conclusively, in up to Retry.MaxAttempts rounds with backoff between
// them. Each round launches the candidates one at a time in ready-first
// ring order, the next as soon as the last answered failover-class: a
// connection error, a 503 (draining/recovering), a 429 (queue full —
// the replica may have capacity) or, for infer, a 404 (the shard
// restarted empty but its peer holds the replicated session). In the
// first round of an infer with two or more candidates the next one also
// goes out when the hedge delay fires: the identical request, same
// idempotency key — exactly-once by construction, both shards compute
// the same deterministic bytes — races the primary. The first
// conclusive answer wins and the others are cancelled; when nothing is
// conclusive the last failover-class reply is relayed rather than
// inventing one. The router.forward.err fault point fails the first
// launch, router.hedge.fire fires the hedge at once.
func (rt *Router) forward(ctx context.Context, candidates []string, method, path string, header http.Header, body []byte) (fwdResult, error) {
	infer := path == api.PathInfer
	type answer struct {
		res   fwdResult
		err   error
		ep    string
		hedge bool
	}
	var lastRes fwdResult
	var lastErr error
	haveRes := false
	forced := fault.Inject(fault.RouterForwardErr)

	// race runs one round and returns its conclusive answer, if any.
	race := func(ordered []string, hedging bool) (fwdResult, bool) {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		answers := make(chan answer, len(ordered))
		next := 0
		launch := func(hedge bool) {
			ep := ordered[next]
			next++
			rt.countShard(ep)
			if forced != nil {
				answers <- answer{err: forced, ep: ep}
				forced = nil
				return
			}
			go func() {
				res, err := rt.roundTrip(rctx, ep, method, path, header, body)
				answers <- answer{res: res, err: err, ep: ep, hedge: hedge}
			}()
		}
		var fire <-chan time.Time
		delay := rt.hedgeAfter
		if hedging {
			if delay == 0 {
				delay = rt.est.hedgeDelay(ordered[0])
			}
			if fault.Inject(fault.RouterHedgeFire) != nil {
				delay = 0
			}
			t := time.NewTimer(delay)
			defer t.Stop()
			fire = t.C
		}
		start := time.Now()
		launch(false)
		for pending := 1; pending > 0; {
			select {
			case <-fire:
				fire = nil
				if next < len(ordered) {
					rt.stats.hedged.Add(1)
					rt.log.Info("router.hedge", slog.String("primary", ordered[0]),
						slog.String("backup", ordered[next]), slog.Duration("after", delay))
					launch(true)
					pending++
				}
			case a := <-answers:
				pending--
				s := a.res.status
				if a.err == nil && s != http.StatusServiceUnavailable && s != http.StatusTooManyRequests &&
					!(infer && s == http.StatusNotFound) {
					if infer {
						// Even a hedge win charges the primary's window: the
						// primary was too slow, and teaching the estimator
						// that keeps hedging firing against a uniformly slow
						// shard.
						rt.est.observe(ordered[0], time.Since(start))
					}
					if a.hedge {
						rt.stats.hedgeWins.Add(1)
						rt.log.Info("router.hedge.win", slog.String("backup", a.ep),
							slog.Duration("latency", time.Since(start)))
					}
					return a.res, true
				}
				rt.stats.failovers.Add(1)
				if a.err != nil {
					rt.log.Warn("router.forward", slog.String("shard", a.ep), slog.String("err", a.err.Error()))
					lastErr = a.err
				} else {
					rt.log.Info("router.failover", slog.String("shard", a.ep), slog.Int("status", s))
					lastRes, haveRes = a.res, true
				}
				if next < len(ordered) {
					launch(false)
					pending++
				}
			}
		}
		return fwdResult{}, false
	}

	for round := 1; round <= rt.pol.MaxAttempts; round++ {
		ordered := rt.orderCandidates(candidates)
		if res, ok := race(ordered, infer && round == 1 && rt.hedgeAfter >= 0 && len(ordered) >= 2); ok {
			return res, nil
		}
		if round < rt.pol.MaxAttempts {
			select {
			case <-ctx.Done():
				return fwdResult{}, ctx.Err()
			case <-time.After(rt.pol.Backoff(round, 0)):
			}
		}
	}
	if haveRes {
		return lastRes, nil
	}
	rt.stats.errors.Add(1)
	return fwdResult{}, lastErr
}

func (rt *Router) roundTrip(ctx context.Context, ep, method, path string, header http.Header, body []byte) (fwdResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, ep+path, bytes.NewReader(body))
	if err != nil {
		return fwdResult{}, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return fwdResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRouterBody))
	if err != nil {
		return fwdResult{}, err
	}
	return fwdResult{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

func (rt *Router) relay(w http.ResponseWriter, res fwdResult) {
	for _, k := range copiedHeaders {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

func (rt *Router) relayErr(w http.ResponseWriter, err error) {
	api.WriteError(w, http.StatusBadGateway, "cluster: %v", err)
}

// --- request handlers ----------------------------------------------------

// handleProgram forwards the spec fetch to any shard (every shard
// serves the same compiled program).
func (rt *Router) handleProgram(w http.ResponseWriter, r *http.Request) {
	res, err := rt.forward(r.Context(), rt.curRing().Endpoints(), http.MethodGet, api.PathProgram, nil, nil)
	if err != nil {
		rt.relayErr(w, err)
		return
	}
	rt.stats.forwarded.Add(1)
	rt.relay(w, res)
}

// handleRegister mints the session id BEFORE the session exists — that
// is the trick that makes stateless routing possible: the id's hash
// decides its primary shard, the registration is forwarded there with
// the id pre-assigned (X-ACE-Session), and the shard replicates the
// bundle to the ring successor before answering 201. Every later
// request re-derives both shards from the id alone.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	id, err := api.NewID()
	if err != nil {
		rt.relayErr(w, err)
		return
	}
	header := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		header.Set("Content-Type", ct)
	}
	header.Set(api.HeaderSession, id)
	// Candidates are the id's primary then its successor: when the
	// primary is down the bundle registers directly on the successor,
	// which serves the session until the primary returns.
	res, err := rt.forward(r.Context(), rt.curRing().LookupN(id, 2), http.MethodPost, api.PathSessions, header, body)
	if err != nil {
		rt.relayErr(w, err)
		return
	}
	rt.stats.forwarded.Add(1)
	rt.relay(w, res)
}

// handleDrop fans the delete out to the session's primary and replica;
// 204 if either held it.
func (rt *Router) handleDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dropped := false
	for _, ep := range rt.curRing().LookupN(id, 2) {
		rt.countShard(ep)
		res, err := rt.roundTrip(r.Context(), ep, http.MethodDelete, api.PathSessions+"/"+id, nil, nil)
		if err == nil && res.status == http.StatusNoContent {
			dropped = true
		}
	}
	rt.stats.forwarded.Add(1)
	if dropped {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	api.WriteError(w, http.StatusNotFound, "unknown session")
}

// handleInfer routes by the session id's ring placement with failover
// to the replica. A request arriving without an idempotency key gets
// one minted here: the router may deliver the same inference to two
// shards (failover mid-flight), and the key is what makes that
// exactly-once instead of twice-executed.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(api.HeaderSession)
	if id == "" {
		id = r.URL.Query().Get("session")
	}
	if id == "" {
		api.WriteError(w, http.StatusBadRequest, "missing %s header", api.HeaderSession)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	header := http.Header{}
	for _, k := range []string{"Content-Type", api.HeaderSession, api.HeaderIdemKey, api.HeaderDeadlineMs, api.HeaderTrace} {
		if v := r.Header.Get(k); v != "" {
			header.Set(k, v)
		}
	}
	header.Set(api.HeaderSession, id)
	if header.Get(api.HeaderIdemKey) == "" {
		key, err := api.NewID()
		if err != nil {
			rt.relayErr(w, err)
			return
		}
		header.Set(api.HeaderIdemKey, key)
	}
	start := time.Now()
	res, err := rt.forward(r.Context(), rt.curRing().LookupN(id, 2), http.MethodPost, api.PathInfer, header, body)
	if err != nil {
		rt.relayErr(w, err)
		return
	}
	if res.status == http.StatusOK {
		rt.lat.Add(float64(time.Since(start)) / float64(time.Millisecond))
	}
	rt.stats.forwarded.Add(1)
	rt.relay(w, res)
}

// handleHealthz is the router's own liveness: it holds no state, so
// alive means ok.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.Healthz{Status: "ok"})
}

// handleReadyz reports the router ready while at least one shard is:
// with every shard down there is nothing to route to.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	members := rt.curRing().Endpoints()
	rt.mu.RLock()
	ready := 0
	for _, ep := range members {
		if !rt.unready[ep] {
			ready++
		}
	}
	rt.mu.RUnlock()
	if ready == 0 {
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Readyz{Status: "no ready shards"})
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Readyz{Status: "ready"})
}

// --- aggregation ---------------------------------------------------------

// scrapeAll fetches one path from every shard concurrently; shards that
// fail are reported with a nil body.
func (rt *Router) scrapeAll(ctx context.Context, path string) map[string][]byte {
	ring := rt.curRing()
	out := make(map[string][]byte, ring.Len())
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ep := range ring.Endpoints() {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			var body []byte
			if res, err := rt.roundTrip(cctx, ep, http.MethodGet, path, nil, nil); err == nil && res.status == http.StatusOK {
				body = res.body
			}
			mu.Lock()
			out[ep] = body
			mu.Unlock()
		}(ep)
	}
	wg.Wait()
	return out
}

// handleStatz aggregates every shard's statz into per-shard snapshots
// plus cluster-wide sums of the monotone counters. A shard whose scrape
// failed is named in Unreachable and represented by its last successful
// snapshot with a nonzero ScrapeAgeSec — explicit staleness instead of
// a silent hole in the totals.
func (rt *Router) handleStatz(w http.ResponseWriter, r *http.Request) {
	shards := map[string]api.Statz{}
	var unreachable []string
	ages := map[string]float64{}
	var sum api.Statz
	now := time.Now()
	for ep, body := range rt.scrapeAll(r.Context(), api.PathStatz) {
		var st api.Statz
		if body != nil && json.Unmarshal(body, &st) == nil {
			rt.scrapeMu.Lock()
			rt.lastStatz[ep] = scrapedStatz{at: now, st: st}
			rt.scrapeMu.Unlock()
			ages[ep] = 0
		} else {
			unreachable = append(unreachable, ep)
			rt.scrapeMu.Lock()
			cached, ok := rt.lastStatz[ep]
			rt.scrapeMu.Unlock()
			if !ok {
				continue // never scraped successfully: nothing to report
			}
			st = cached.st
			ages[ep] = now.Sub(cached.at).Seconds()
		}
		shards[ep] = st
		sum.Served += st.Served
		sum.Rejected += st.Rejected
		sum.TimedOut += st.TimedOut
		sum.Failed += st.Failed
		sum.Panics += st.Panics
		sum.IdemReplays += st.IdemReplays
		sum.FaultsFired += st.FaultsFired
		sum.QueueExpired += st.QueueExpired
		sum.QueueDepth += st.QueueDepth
		sum.QueueCap += st.QueueCap
		sum.Workers += st.Workers
		sum.Batches += st.Batches
		sum.BatchedJobs += st.BatchedJobs
		sum.SoloFallbacks += st.SoloFallbacks
		sum.Sessions += st.Sessions
		sum.SessionBytes += st.SessionBytes
		sum.SessionBudget += st.SessionBudget
		sum.SessionHits += st.SessionHits
		sum.SessionMisses += st.SessionMisses
		sum.SessionEvictions += st.SessionEvictions
		sum.Restarts += st.Restarts
		sum.SessionsRecovered += st.SessionsRecovered
		sum.JobsResumed += st.JobsResumed
		sum.CheckpointBytes += st.CheckpointBytes
		sum.StoreBytes += st.StoreBytes
		sum.StoreErrs += st.StoreErrs
		sum.PendingRecovery += st.PendingRecovery
		sum.ReplicaSessions += st.ReplicaSessions
		sum.ReplicaResults += st.ReplicaResults
		sum.ReplicaShipErrs += st.ReplicaShipErrs
	}
	// Quantiles do not sum across shards: the cluster-level latency is the
	// router's own, over every infer it answered with a 200.
	sum.LatencyMsP50 = rt.lat.Quantile(0.50)
	sum.LatencyMsP90 = rt.lat.Quantile(0.90)
	sum.LatencyMsP99 = rt.lat.Quantile(0.99)
	sort.Strings(unreachable)
	api.WriteJSON(w, http.StatusOK, ClusterStatz{
		Router: rt.routerStatz(), Cluster: sum, Shards: shards,
		Unreachable: unreachable, ScrapeAgeSec: ages,
	})
}

// handleProfilez returns every shard's per-opcode FHE profile keyed by
// shard endpoint. Profiles are dense aggregates, not counters; summing
// them would hide exactly the per-shard skew this page exists to show.
func (rt *Router) handleProfilez(w http.ResponseWriter, r *http.Request) {
	out := map[string]json.RawMessage{}
	for ep, body := range rt.scrapeAll(r.Context(), api.PathProfilez) {
		if body == nil {
			continue
		}
		out[ep] = json.RawMessage(body)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleMetrics federates the shards' Prometheus pages: every sample is
// strict-parsed and re-emitted with a "shard" label added, one family
// per metric name — histograms, counters and gauges all keep their
// native type, and a scraper sees the whole cluster on one page. The
// router's own counters ride along as ace_router_* families.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type parsed struct {
		ep  string
		fam map[string]*obs.ParsedFamily
	}
	var pages []parsed
	for ep, body := range rt.scrapeAll(r.Context(), api.PathMetrics) {
		if body == nil {
			continue
		}
		fams, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			rt.log.Warn("router.metrics.parse", slog.String("shard", ep), slog.String("err", err.Error()))
			continue
		}
		pages = append(pages, parsed{ep: ep, fam: fams})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].ep < pages[j].ep })

	e := obs.NewExposition()
	for _, pg := range pages {
		names := make([]string, 0, len(pg.fam))
		for name := range pg.fam {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f := pg.fam[name]
			fw := e.Family(name, f.Help, obs.MetricType(f.Type))
			for _, s := range f.Samples {
				labels := make([]obs.Label, 0, len(s.Labels)+1)
				labels = append(labels, obs.Label{Name: "shard", Value: pg.ep})
				lnames := make([]string, 0, len(s.Labels))
				for ln := range s.Labels {
					lnames = append(lnames, ln)
				}
				sort.Strings(lnames)
				for _, ln := range lnames {
					labels = append(labels, obs.Label{Name: ln, Value: s.Labels[ln]})
				}
				fw.AddRaw(s.Name, s.Value, labels...)
			}
		}
	}

	rs := rt.routerStatz()
	e.Family("ace_router_forwarded_total", "Requests the router forwarded to a shard and answered.", obs.Counter).Add(float64(rs.Forwarded))
	e.Family("ace_router_failovers_total", "Forward attempts that failed over to the next candidate shard.", obs.Counter).Add(float64(rs.Failovers))
	e.Family("ace_router_errors_total", "Requests that exhausted every candidate shard.", obs.Counter).Add(float64(rs.Errors))
	e.Family("ace_hedged_requests", "Infer requests that fired a duplicate to the replica after the hedge delay.", obs.Counter).Add(float64(rs.Hedged))
	e.Family("ace_hedge_wins", "Hedged infer requests the replica answered first.", obs.Counter).Add(float64(rs.HedgeWins))
	e.Family("ace_cluster_epoch", "Committed cluster membership epoch.", obs.Gauge).Add(float64(rs.Epoch))
	sf := e.Family("ace_router_shard_requests_total", "Forward attempts per shard.", obs.Counter)
	shardKeys := make([]string, 0, len(rs.ShardRequests))
	for ep := range rs.ShardRequests {
		shardKeys = append(shardKeys, ep)
	}
	sort.Strings(shardKeys)
	for _, ep := range shardKeys {
		sf.Add(float64(rs.ShardRequests[ep]), obs.Label{Name: "shard", Value: ep})
	}
	e.Family("ace_router_shards", "Shards in the routing ring.", obs.Gauge).Add(float64(len(rs.Ready)))

	var buf bytes.Buffer
	if err := e.Write(&buf); err != nil {
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// --- counters ------------------------------------------------------------

func (rt *Router) countShard(ep string) {
	rt.stats.mu.Lock()
	rt.stats.shardRequests[ep]++
	rt.stats.mu.Unlock()
}

// routerStatz snapshots the router's own counters and prober view.
func (rt *Router) routerStatz() RouterStatz {
	epoch, ring := rt.mem.Current()
	st := RouterStatz{
		Forwarded: rt.stats.forwarded.Load(),
		Failovers: rt.stats.failovers.Load(),
		Errors:    rt.stats.errors.Load(),
		Hedged:    rt.stats.hedged.Load(),
		HedgeWins: rt.stats.hedgeWins.Load(),
		Epoch:     epoch,
		Ready:     make(map[string]bool, ring.Len()),
	}
	rt.mu.RLock()
	for _, ep := range ring.Endpoints() {
		st.Ready[ep] = !rt.unready[ep]
	}
	rt.mu.RUnlock()
	rt.stats.mu.Lock()
	st.ShardRequests = maps.Clone(rt.stats.shardRequests)
	rt.stats.mu.Unlock()
	return st
}
