package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/fheclient"
	"antace/internal/nnir"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/serve/api"
	"antace/internal/sihe"
	"antace/internal/vecir"
)

// compileLinear lowers the paper's running-example model to an
// executable CKKS program, mirroring the vm package's test pipeline.
func compileLinear(t testing.TB) (Program, *vecir.Result) {
	t.Helper()
	m, err := onnx.BuildLinear(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := nnir.Import(m)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := vecir.Lower(nn, vecir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sihe.Lower(vres.Module, sihe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ckksir.Lower(sm, ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true})
	if err != nil {
		t.Fatal(err)
	}
	return Program{Name: "linear_infer", CKKS: res, VecLen: vres.InLayout.L}, vres
}

func startServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *vecir.Result) {
	t.Helper()
	prog, vres := compileLinear(t)
	s, ts := serveProgram(t, prog, cfg)
	return s, ts, vres
}

// serveProgram starts a loopback server for prog, drained and closed
// when the test ends.
func serveProgram(t testing.TB, prog Program, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func testInput(n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i%5)/5 - 0.4
	}
	return in
}

// checkAgainstReference compares decrypted output slots against the
// VECTOR IR executor on the same input.
func checkAgainstReference(t *testing.T, vres *vecir.Result, input, got []float64) {
	t.Helper()
	want, err := vecir.Run(vres.Module.Main(), input)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < vres.OutLayout.C; k++ {
		slot := vres.OutLayout.Slot(k, 0, 0)
		if math.Abs(got[slot]-want[slot]) > 1e-4 {
			t.Fatalf("class %d: served %g, reference %g", k, got[slot], want[slot])
		}
	}
}

// TestLoopbackInference is the serving layer's end-to-end check: spec
// fetch, key generation, session registration and encrypted inference
// all cross a real HTTP boundary through the full wire format, and the
// decrypted result must match the plaintext reference.
func TestLoopbackInference(t *testing.T) {
	// DataDir makes the smoke test cover the durable serving path too:
	// registration spills keys, the keyed request journals, and statz
	// reports store bytes.
	s, ts, vres := startServer(t, Config{Workers: 2, DataDir: t.TempDir()})
	ctx := context.Background()

	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec().VecLen != vres.InLayout.L {
		t.Fatalf("spec vec_len %d, want %d", c.Spec().VecLen, vres.InLayout.L)
	}
	if _, err := c.Infer(ctx, testInput(vres.InLayout.L)); err == nil {
		t.Fatal("inference before Register must fail")
	}
	id, err := c.Register(ctx, ring.SeedFromInt(21))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" || c.SessionID() != id {
		t.Fatalf("bad session id %q", id)
	}

	input := testInput(vres.InLayout.L)
	got, err := c.Infer(ctx, input)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, vres, input, got)

	// Counters reflect the round trip.
	st := fetchStatz(t, ts.URL)
	if st.Served != 1 || st.Sessions != 1 || st.SessionHits != 1 {
		t.Fatalf("statz after one request: %+v", st)
	}
	if st.LatencyMsP50 <= 0 {
		t.Fatalf("latency quantiles not recorded: %+v", st)
	}
	if st.StoreBytes <= 0 {
		t.Fatalf("durable smoke: store_bytes = %d, want > 0", st.StoreBytes)
	}

	// Dropping the session invalidates it.
	if err := c.Drop(ctx); err != nil {
		t.Fatal(err)
	}
	_ = s
}

// TestLoopbackSixSpecialPrimes: the special-prime count is the
// compiler's choice, six for the deep bootstrapped chains, and nothing on
// the serving path may assume two. The client rebuilds its parameters
// from the served literal, generates keys of that shape and uploads them;
// the shard switches keys with them.
func TestLoopbackSixSpecialPrimes(t *testing.T) {
	prog, vres := compileLinear(t)
	prog.CKKS.Literal.LogP = []int{61, 61, 61, 61, 61, 61}
	_, ts := serveProgram(t, prog, Config{Workers: 1})
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k := len(c.Params().P()); k != 6 {
		t.Fatalf("client compiled %d special primes from the served literal, want 6", k)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(22)); err != nil {
		t.Fatal(err)
	}
	input := testInput(vres.InLayout.L)
	got, err := c.Infer(ctx, input)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, vres, input, got)
}

// TestConcurrentClientsShareSession exercises the documented concurrency
// contract under -race: several goroutines share one registered session
// while workers evaluate with per-request machines.
func TestConcurrentClientsShareSession(t *testing.T) {
	_, ts, vres := startServer(t, Config{Workers: 4, QueueDepth: 32})
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(22)); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				input := testInput(vres.InLayout.L)
				input[0] = float64(g) / 10
				got, err := c.Infer(ctx, input)
				if err != nil {
					errs <- err
					return
				}
				want, err := vecir.Run(vres.Module.Main(), input)
				if err != nil {
					errs <- err
					return
				}
				slot := vres.OutLayout.Slot(0, 0, 0)
				if math.Abs(got[slot]-want[slot]) > 1e-4 {
					errs <- errors.New("concurrent inference diverged from reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := fetchStatz(t, ts.URL)
	if st.Served != goroutines*perG {
		t.Fatalf("served %d, want %d", st.Served, goroutines*perG)
	}
}

// TestQueueFullAndDeadline pins the two robustness paths: a full queue
// answers 429 with Retry-After, and a deadline expiring while queued
// answers 504. A test hook parks the single worker so both states are
// deterministic.
func TestQueueFullAndDeadline(t *testing.T) {
	prog, vres := compileLinear(t)
	s, err := New(prog, Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	running := make(chan struct{}, 8)
	s.beforeExec = func(*job) {
		running <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(23)); err != nil {
		t.Fatal(err)
	}
	// This test pins the raw wire behavior (one 429, one 504), so switch
	// off the client's automatic retries.
	c.SetRetryPolicy(fheclient.RetryPolicy{MaxAttempts: 1})
	input := testInput(vres.InLayout.L)

	// Request 1 occupies the worker (parked on the gate).
	r1 := make(chan error, 1)
	go func() {
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		_, err := c.Infer(rctx, input)
		r1 <- err
	}()
	<-running

	// Request 2 fills the queue; its deadline expires while queued.
	r2 := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		_, err := c.Infer(dctx, input)
		r2 <- err
	}()
	waitQueueDepth(t, ts.URL, 1)

	// Request 3 finds the queue full: 429 with a Retry-After hint.
	_, err = c.Infer(ctx, input)
	var apiErr *fheclient.APIError
	if !errors.As(err, &apiErr) || !apiErr.IsQueueFull() {
		t.Fatalf("expected queue-full 429, got %v", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("429 carried no Retry-After: %+v", apiErr)
	}

	// Request 2 times out in the queue: 504.
	err = <-r2
	if !errors.As(err, &apiErr) || !apiErr.IsDeadline() {
		t.Fatalf("expected deadline 504, got %v", err)
	}

	// Release the worker: request 1 completes normally.
	release()
	if err := <-r1; err != nil {
		t.Fatal(err)
	}

	st := fetchStatz(t, ts.URL)
	if st.Served != 1 || st.Rejected != 1 || st.TimedOut != 1 {
		t.Fatalf("counters after the storm: %+v", st)
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
}

// TestDrainRefusesNewWork covers the SIGTERM path: after Drain, health
// reports draining and inference is refused with 503, while already
// accepted work has finished by construction.
func TestDrainRefusesNewWork(t *testing.T) {
	prog, vres := compileLinear(t)
	s, err := New(prog, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(24)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(ctx, testInput(vres.InLayout.L)); err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(dctx); err != nil { // idempotent
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + api.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	_, err = c.Infer(ctx, testInput(vres.InLayout.L))
	var apiErr *fheclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 while draining, got %v", err)
	}
}

// TestRegisterRejectsIncompleteBundle: a key bundle missing required
// rotation keys is refused at registration time with a message naming
// the gap, not at evaluation time.
func TestRegisterRejectsIncompleteBundle(t *testing.T) {
	s, ts, _ := startServer(t, Config{Workers: 1})
	params, err := ckks.ParamsFromBytes(s.Spec().Params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(25))
	sk := kg.GenSecretKey()
	keys := &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: map[uint64]*ckks.GaloisKey{}, // no rotation keys at all
	}
	bundle, err := keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+api.PathSessions, api.ContentTypeBinary, strings.NewReader(string(bundle)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("incomplete bundle accepted with %d", resp.StatusCode)
	}
}

// TestInferUnknownSession: 404 before any registration.
func TestInferUnknownSession(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+api.PathInfer, strings.NewReader("junk"))
	req.Header.Set(api.HeaderSession, "deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 400/404, got %d", resp.StatusCode)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchStatz(t testing.TB, base string) api.Statz {
	t.Helper()
	resp, err := http.Get(base + api.PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.Statz
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitQueueDepth(t testing.TB, base string, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fetchStatz(t, base).QueueDepth >= depth {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("queue never reached depth %d", depth)
}
