package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"antace/internal/cluster"
	"antace/internal/fheclient"
	"antace/internal/ring"
	"antace/internal/serve/api"
)

// tryInfer is rawInfer without t.Fatal, safe for load goroutines.
func tryInfer(base, session, idemKey string, ctBytes []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+api.PathInfer, bytes.NewReader(ctBytes))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(api.HeaderSession, session)
	req.Header.Set(api.HeaderIdemKey, idemKey)
	req.Header.Set(api.HeaderDeadlineMs, "120000")
	resp, err := (&http.Client{Timeout: 3 * time.Minute}).Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// chaosFleet is the subprocess fleet shared by the membership chaos
// tests: n aced shards wired for replication plus one acerouter.
type chaosFleet struct {
	aced, acerouter string
	urls            []string
	peers           string
	procs           map[string]*exec.Cmd
	routerURL       string
}

// startChaosFleet boots n shards and a router. extraArgs[i] is appended
// to shard i's command line.
func startChaosFleet(t *testing.T, n int, extraArgs map[int][]string) *chaosFleet {
	t.Helper()
	f := &chaosFleet{
		aced:      buildBin(t, "antace/cmd/aced"),
		acerouter: buildBin(t, "antace/cmd/acerouter"),
		procs:     map[string]*exec.Cmd{},
	}
	ports := freePorts(t, n)
	for _, p := range ports {
		f.urls = append(f.urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	f.peers = strings.Join(f.urls, ",")
	for i, p := range ports {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-workers", "1",
			"-cluster-self", f.urls[i],
			"-cluster-peers", f.peers,
		}
		args = append(args, extraArgs[i]...)
		cmd, _ := startProc(t, f.aced, args...)
		f.procs[f.urls[i]] = cmd
	}
	_, f.routerURL = startProc(t, f.acerouter, "-addr", "127.0.0.1:0", "-shards", f.peers)
	return f
}

// registerVia registers a fresh client through url and returns it with
// its session id and a marshaled input ciphertext.
func registerVia(t *testing.T, url string, seed uint64, pattern func(int) float64) (*fheclient.Client, string, []byte) {
	t.Helper()
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Register(ctx, ring.SeedFromInt(seed))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, c.Spec().VecLen)
	for i := range input {
		input[i] = pattern(i)
	}
	ct, err := c.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	ctBytes, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return c, id, ctBytes
}

func fetchMembership(t *testing.T, base string) api.Membership {
	t.Helper()
	resp, err := http.Get(base + api.PathClusterMembership)
	if err != nil {
		t.Fatal(err)
	}
	var view api.Membership
	err = jsonBody(resp, &view)
	resp.Body.Close()
	if err != nil || view.Epoch == 0 {
		t.Fatalf("membership from %s: %+v err %v", base, view, err)
	}
	return view
}

// TestChaosMembershipJoinMidLoad: a brand-new shard — booted knowing
// only itself — joins a 3-shard cluster through the router while
// requests are in flight. The join must be invisible to clients: no
// re-registration, every response (during and after the change)
// byte-identical to the uninterrupted reference.
func TestChaosMembershipJoinMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	f := startChaosFleet(t, 3, nil)
	_, sessID, ctBytes := registerVia(t, f.routerURL, 71, func(i int) float64 { return float64(i%9)/9 - 0.4 })

	resp, want := rawInfer(t, f.routerURL, sessID, "ref", ctBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: status %d body %s", resp.StatusCode, want)
	}

	// Continuous load across the membership change.
	type loadResult struct {
		key    string
		status int
		body   []byte
		err    error
	}
	stop := make(chan struct{})
	done := make(chan []loadResult, 1)
	go func() {
		var results []loadResult
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- results
				return
			default:
			}
			key := fmt.Sprintf("load-%04d", i)
			status, body, err := tryInfer(f.routerURL, sessID, key, ctBytes)
			results = append(results, loadResult{key: key, status: status, body: body, err: err})
		}
	}()

	// The joiner boots with itself as its whole world; the router's join
	// broadcast hands it the authoritative ring.
	port := freePorts(t, 1)[0]
	joinerURL := fmt.Sprintf("http://127.0.0.1:%d", port)
	joiner, _ := startProc(t, f.aced,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "1",
		"-cluster-self", joinerURL,
		"-cluster-peers", joinerURL)
	_ = joiner

	body := `{"endpoint":"` + joinerURL + `"}`
	jr, err := http.Post(f.routerURL+api.PathClusterJoin, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view api.Membership
	err = jsonBody(jr, &view)
	jr.Body.Close()
	if err != nil || jr.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d err %v", jr.StatusCode, err)
	}
	if view.Epoch != 1 || len(view.Members) != 4 {
		t.Fatalf("join committed %+v", view)
	}

	// Keep the load running against the 4-shard ring, then settle it.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	results := <-done
	if len(results) == 0 {
		t.Fatal("the load loop never completed a request")
	}
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("load %s: %v", r.key, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("load %s: status %d body %s", r.key, r.status, r.body)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("load %s answered different bytes across the join", r.key)
		}
	}
	t.Logf("%d requests rode the join unharmed", len(results))

	// The joined shard serves traffic: infer again (routing may now pick
	// it as primary) and confirm the router reports epoch 1.
	resp, got := rawInfer(t, f.routerURL, sessID, "post-join", ctBytes)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-join inference: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	if mv := fetchMembership(t, f.routerURL); mv.Epoch != 1 || len(mv.Members) != 4 {
		t.Fatalf("router membership after join: %+v", mv)
	}
}

// TestChaosMembershipDrainMidLoad: POST /v1/cluster/leave drains a
// loaded shard. The leaver must hand off every session and journal
// entry before the epoch commits, finish its in-flight requests
// bit-identically, and then exit zero on its own.
func TestChaosMembershipDrainMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	// -instr-delay widens the in-flight window so the drain genuinely
	// races live evaluations.
	f := startChaosFleet(t, 3, map[int][]string{
		0: {"-instr-delay", "10ms"}, 1: {"-instr-delay", "10ms"}, 2: {"-instr-delay", "10ms"},
	})
	_, sessID, ctBytes := registerVia(t, f.routerURL, 72, func(i int) float64 { return float64(i%7)/7 - 0.3 })

	resp, want := rawInfer(t, f.routerURL, sessID, "ref", ctBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: status %d body %s", resp.StatusCode, want)
	}

	rg, err := cluster.NewRing(f.urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := rg.LookupN(sessID, 2)[0]

	// In-flight requests racing the drain.
	const inflight = 3
	type res struct {
		status int
		body   []byte
		err    error
	}
	var wg sync.WaitGroup
	results := make([]res, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := tryInfer(f.routerURL, sessID, fmt.Sprintf("doomed-%d", i), ctBytes)
			results[i] = res{status, body, err}
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let them reach the victim

	lr, err := http.Post(f.routerURL+api.PathClusterLeave, "application/json",
		strings.NewReader(`{"endpoint":"`+victim+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view api.Membership
	err = jsonBody(lr, &view)
	lr.Body.Close()
	if err != nil || lr.StatusCode != http.StatusOK {
		t.Fatalf("leave: status %d err %v", lr.StatusCode, err)
	}
	if view.Epoch != 1 || len(view.Members) != 2 {
		t.Fatalf("leave committed %+v", view)
	}

	// The drained daemon exits on its own, cleanly, after handing off.
	exited := make(chan error, 1)
	go func() { exited <- f.procs[victim].Wait() }()
	select {
	case werr := <-exited:
		if werr != nil {
			t.Fatalf("drained shard exited uncleanly: %v", werr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drained shard never exited")
	}

	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("in-flight %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight %d: status %d body %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("in-flight %d answered different bytes across the drain", i)
		}
	}

	// The survivors own everything: fresh execution and journal replay
	// both answer bit-identically, with zero client re-registration.
	resp, got := rawInfer(t, f.routerURL, sessID, "post-drain", ctBytes)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-drain inference: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	resp, replayed := rawInfer(t, f.routerURL, sessID, "ref", ctBytes)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(replayed, want) {
		t.Fatalf("journal replay after drain: status %d, identical=%v", resp.StatusCode, bytes.Equal(replayed, want))
	}
	if resp.Header.Get(api.HeaderIdemReplayed) != "1" {
		t.Error("pre-drain completion was not replayed from the re-shipped journal")
	}
	if mv := fetchMembership(t, f.routerURL); mv.Epoch != 1 || len(mv.Members) != 2 {
		t.Fatalf("router membership after drain: %+v", mv)
	}
}

// TestChaosMembershipStragglerHedging: one shard is pathologically slow
// (-instr-delay). For a session whose primary is the straggler, router-
// side hedging must keep the observed p99 under 2x the healthy p99 —
// the hedge fires after the latency SLO, the replica answers first, and
// every response stays byte-identical and exactly-once. Healthy and
// hedged phases are interleaved and their medians compared.
func TestChaosMembershipStragglerHedging(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	// Every shard gets a small per-instruction delay so evaluation time
	// dominates scheduler noise and the healthy baseline is stable; the
	// straggler is an order of magnitude slower on top.
	f := startChaosFleet(t, 3, map[int][]string{
		0: {"-instr-delay", "30ms"},
		1: {"-instr-delay", "3ms"},
		2: {"-instr-delay", "3ms"},
	})
	straggler := f.urls[0]
	rg, err := cluster.NewRing(f.urls, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Draw sessions until one lands on a healthy primary and one on the
	// straggler; placement is uniform, so a handful of draws suffice.
	var healthyID, slowID string
	var healthyCT, slowCT []byte
	for seed := uint64(500); seed < 560 && (healthyID == "" || slowID == ""); seed++ {
		_, id, ct := registerVia(t, f.routerURL, seed, func(i int) float64 { return float64(i%6)/6 - 0.25 })
		if rg.LookupN(id, 2)[0] == straggler {
			if slowID == "" {
				slowID, slowCT = id, ct
			}
		} else if healthyID == "" {
			healthyID, healthyCT = id, ct
		}
	}
	if healthyID == "" || slowID == "" {
		t.Fatal("placement draws never covered both a healthy and a straggler primary")
	}

	// healthyPhase is one baseline phase through the default router: the
	// slowest of a run of requests for the healthy session.
	const baseline, loads, repeats = 8, 10, 3
	var healthyRef []byte
	healthyPhase := func(rep int) time.Duration {
		worst := time.Duration(0)
		for i := 0; i < baseline; i++ {
			start := time.Now()
			resp, body := rawInfer(t, f.routerURL, healthyID, fmt.Sprintf("base-%d-%d", rep, i), healthyCT)
			el := time.Since(start)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("baseline %d/%d: status %d", rep, i, resp.StatusCode)
			}
			if healthyRef == nil {
				healthyRef = body
			} else if !bytes.Equal(body, healthyRef) {
				t.Fatalf("baseline %d/%d not deterministic", rep, i)
			}
			if el > worst {
				worst = el
			}
		}
		return worst
	}
	healthy := []time.Duration{healthyPhase(0)}

	// A second stateless router fronts the same shards with the hedge
	// SLO set from the first measured baseline — a third of the healthy
	// p99, floored against scheduler jitter.
	hedgeAfter := healthy[0] / 3
	if hedgeAfter < 5*time.Millisecond {
		hedgeAfter = 5 * time.Millisecond
	}
	_, hedgedRouter := startProc(t, f.acerouter,
		"-addr", "127.0.0.1:0",
		"-shards", f.peers,
		"-hedge-after", hedgeAfter.String())

	// Reference bytes for the straggler's session (any path: evaluation
	// is deterministic).
	resp, slowWant := rawInfer(t, hedgedRouter, slowID, "slow-ref", slowCT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("straggler reference: status %d", resp.StatusCode)
	}
	hedgedPhase := func(rep int) time.Duration {
		worst := time.Duration(0)
		for i := 0; i < loads; i++ {
			start := time.Now()
			status, body, err := tryInfer(hedgedRouter, slowID, fmt.Sprintf("hedged-%d-%d", rep, i), slowCT)
			el := time.Since(start)
			if err != nil || status != http.StatusOK {
				t.Fatalf("hedged %d/%d: status %d err %v", rep, i, status, err)
			}
			if !bytes.Equal(body, slowWant) {
				t.Fatalf("hedged %d/%d answered different bytes", rep, i)
			}
			if el > worst {
				worst = el
			}
		}
		return worst
	}

	// The two kinds of phase alternate, so a neighbour stalling the box for
	// a second lands in one phase of one repeat, and the medians over the
	// repeats are compared: one stalled phase on either side moves
	// neither. The bound itself is the one the mechanism promises.
	var hedged []time.Duration
	for rep := 0; rep < repeats; rep++ {
		if rep > 0 {
			healthy = append(healthy, healthyPhase(rep))
		}
		hedged = append(hedged, hedgedPhase(rep))
	}
	median := func(d []time.Duration) time.Duration {
		s := append([]time.Duration(nil), d...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)/2]
	}
	healthyP99, worst := median(healthy), median(hedged)
	if worst >= 2*healthyP99 {
		t.Errorf("straggler p99 %v with hedging (phases %v), want < 2x healthy p99 %v (phases %v)", worst, hedged, healthyP99, healthy)
	}

	// The router's counters prove the mechanism: hedges fired and the
	// replica won at least once.
	sresp, err := http.Get(hedgedRouter + api.PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	var st cluster.ClusterStatz
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.Hedged == 0 {
		t.Error("ace_hedged_requests = 0: the hedge never fired against the straggler")
	}
	if st.Router.HedgeWins == 0 {
		t.Error("ace_hedge_wins = 0: the replica never beat the straggler")
	}
	t.Logf("healthy p99 %v of %v, hedge-after %v, straggler p99 with hedging %v of %v, hedged=%d wins=%d",
		healthyP99, healthy, hedgeAfter, worst, hedged, st.Router.Hedged, st.Router.HedgeWins)
}
