package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antace/internal/fault"
	"antace/internal/fheclient"
	"antace/internal/ring"
	"antace/internal/serve/api"
)

// The chaos suite drives the daemon through injected failures — worker
// panics, dropped responses, queue-full storms — and checks the
// fault-tolerance contract: the daemon keeps serving, counters
// reconcile, and retried inferences still decrypt to the cleartext
// reference. Fault points are process-global, so none of these tests
// may run in parallel.

// armFaults arms a spec for the duration of one test.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Arm(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disarm)
}

// dialRegistered dials the test server and registers a deterministic
// session.
func dialRegistered(t *testing.T, base string, seed uint64) *fheclient.Client {
	t.Helper()
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(seed)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosWorkerPanicMidInference arms serve.worker.panic so the first
// evaluation dies inside the worker. The daemon must convert the panic
// into a 500 EVAL_PANIC (not crash), the client's retry must succeed,
// and the worker pool must keep serving afterwards.
func TestChaosWorkerPanicMidInference(t *testing.T) {
	s, ts, vres := startServer(t, Config{Workers: 2})
	var execs atomic.Int64
	s.beforeExec = func(*job) { execs.Add(1) }
	c := dialRegistered(t, ts.URL, 31)
	input := testInput(vres.InLayout.L)
	ctx := context.Background()

	armFaults(t, fault.ServeWorkerPanic+":1:0")
	got, err := c.Infer(ctx, input)
	if err != nil {
		t.Fatalf("inference did not survive an injected worker panic: %v", err)
	}
	checkAgainstReference(t, vres, input, got)

	// The daemon is still healthy: a second inference works too.
	if got, err = c.Infer(ctx, input); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, vres, input, got)

	st := fetchStatz(t, ts.URL)
	if st.Panics != 1 || st.Failed != 1 || st.FaultsFired != 1 {
		t.Fatalf("panic counters did not reconcile: %+v", st)
	}
	if st.Served != 2 {
		t.Fatalf("served %d requests, want 2: %+v", st.Served, st)
	}
	if n := execs.Load(); n != 3 {
		t.Fatalf("expected 3 executions (1 panicked + 2 served), got %d", n)
	}
}

// TestChaosRescaleErrorKeepsServing arms ckks.rescale.err, which fails
// deep inside the evaluator as a returned error (not a panic). The
// request must fail with a typed 500, the retry must succeed, and the
// panic counter must stay untouched — errors and panics are distinct
// rows in the taxonomy.
func TestChaosRescaleErrorKeepsServing(t *testing.T) {
	_, ts, vres := startServer(t, Config{Workers: 1})
	c := dialRegistered(t, ts.URL, 32)
	input := testInput(vres.InLayout.L)

	armFaults(t, fault.CKKSRescaleErr+":1:0")
	got, err := c.Infer(context.Background(), input)
	if err != nil {
		t.Fatalf("inference did not survive an injected rescale error: %v", err)
	}
	checkAgainstReference(t, vres, input, got)

	st := fetchStatz(t, ts.URL)
	if st.Failed != 1 || st.Panics != 0 || st.FaultsFired != 1 || st.Served != 1 {
		t.Fatalf("rescale-error counters did not reconcile: %+v", st)
	}
}

// TestChaosConnResetIdempotentRetry arms client.conn.reset: the server
// completes the evaluation, but the response is lost before the client
// reads it. The retry carries the same idempotency key, so the daemon
// replays the stored result instead of executing the program a second
// time.
func TestChaosConnResetIdempotentRetry(t *testing.T) {
	s, ts, vres := startServer(t, Config{Workers: 1})
	var execs atomic.Int64
	s.beforeExec = func(*job) { execs.Add(1) }
	c := dialRegistered(t, ts.URL, 33)
	input := testInput(vres.InLayout.L)

	armFaults(t, fault.ClientConnReset+":1:0")
	got, err := c.Infer(context.Background(), input)
	if err != nil {
		t.Fatalf("inference did not survive an injected connection reset: %v", err)
	}
	checkAgainstReference(t, vres, input, got)

	if n := execs.Load(); n != 1 {
		t.Fatalf("retried inference executed the program %d times, want exactly 1", n)
	}
	st := fetchStatz(t, ts.URL)
	if st.IdemReplays != 1 || st.Served != 1 || st.Failed != 0 {
		t.Fatalf("idempotent-replay counters did not reconcile: %+v", st)
	}
}

// TestChaosIdemReplayBitIdentical drives the idempotency cache at the
// wire level: two raw requests under one key must return bit-identical
// ciphertext bytes, with the second marked as a replay and the program
// executed exactly once.
func TestChaosIdemReplayBitIdentical(t *testing.T) {
	s, ts, vres := startServer(t, Config{Workers: 1})
	var execs atomic.Int64
	s.beforeExec = func(*job) { execs.Add(1) }
	c := dialRegistered(t, ts.URL, 34)

	ct, err := c.Encrypt(testInput(vres.InLayout.L))
	if err != nil {
		t.Fatal(err)
	}
	body, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathInfer, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", api.ContentTypeBinary)
		req.Header.Set(api.HeaderSession, c.SessionID())
		req.Header.Set(api.HeaderIdemKey, "chaos-replay-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return resp, data
	}

	first, firstBody := post()
	second, secondBody := post()
	if first.Header.Get(api.HeaderIdemReplayed) != "" {
		t.Fatal("first execution must not be marked as a replay")
	}
	if second.Header.Get(api.HeaderIdemReplayed) != "1" {
		t.Fatal("second request under the same key must be marked as a replay")
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("replayed ciphertext differs from the original (%d vs %d bytes)", len(firstBody), len(secondBody))
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("program executed %d times under one idempotency key, want 1", n)
	}
}

// TestChaosQueueFullStorm floods a one-worker, one-slot queue with
// concurrent clients. Rejected requests back off per the server's
// Retry-After and try again; every inference must eventually succeed
// and the counters must reconcile to exactly one success per client.
func TestChaosQueueFullStorm(t *testing.T) {
	const clients = 6
	s, ts, vres := startServer(t, Config{Workers: 1, QueueDepth: 1})
	s.beforeExec = func(*job) { time.Sleep(10 * time.Millisecond) }
	input := testInput(vres.InLayout.L)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := dialRegistered(t, ts.URL, 35)
	c.SetRetryPolicy(fheclient.RetryPolicy{MaxAttempts: 10, Budget: 45 * time.Second})

	var wg sync.WaitGroup
	errs := make([]error, clients)
	outs := make([][]float64, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Infer(ctx, input)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d never got through the storm: %v", i, err)
		}
		checkAgainstReference(t, vres, input, outs[i])
	}

	st := fetchStatz(t, ts.URL)
	if st.Served != clients {
		t.Fatalf("served %d, want %d: %+v", st.Served, clients, st)
	}
	if st.Rejected == 0 {
		t.Fatalf("storm produced no queue-full rejections: %+v", st)
	}
	if st.Failed != 0 || st.Panics != 0 {
		t.Fatalf("storm must only reject, not fail: %+v", st)
	}
}
