package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"antace/internal/ckksir"
	"antace/internal/fault"
	"antace/internal/fheclient"
	"antace/internal/nnir"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/vecir"
)

// compileLinearWide lowers the same running-example model as
// compileLinear but forces the ring degree wide (logN 8, 128 slots) so
// the program has spare slot lanes and a batching server transforms it
// to a stride > 1 layout.
func compileLinearWide(t testing.TB) (Program, *vecir.Result) {
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
	res, err := ckksir.Lower(sm, ckksir.Options{Mode: ckksir.BootstrapNever, IgnoreSecurity: true, ForceLogN: 8})
	if err != nil {
		t.Fatal(err)
	}
	return Program{Name: "linear_infer_wide", CKKS: res, VecLen: vres.InLayout.L}, vres
}

func startBatchedServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *vecir.Result) {
	t.Helper()
	prog, vres := compileLinearWide(t)
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
	return s, ts, vres
}

// inferChecked runs one inference and compares it against the VECTOR IR
// reference — the solo semantics every batched request must preserve.
func inferChecked(ctx context.Context, c *fheclient.Client, vres *vecir.Result, input []float64) error {
	got, err := c.Infer(ctx, input)
	if err != nil {
		return err
	}
	want, err := vecir.Run(vres.Module.Main(), input)
	if err != nil {
		return err
	}
	for k := 0; k < vres.OutLayout.C; k++ {
		slot := vres.OutLayout.Slot(k, 0, 0)
		if math.Abs(got[slot]-want[slot]) > 1e-4 {
			return fmt.Errorf("class %d: batched %g, solo reference %g", k, got[slot], want[slot])
		}
	}
	return nil
}

// TestBatchedInferenceMatchesSolo is the serving layer's differential:
// several concurrent clients coalesce into one fused evaluation (the
// statz counters prove the requests really shared a ciphertext) and
// every decrypted per-lane result must still match the solo reference.
// Three clients against a four-lane window also covers the partial
// batch: one lane stays empty and nobody notices.
// (The exact bit-level solo-vs-batched differential, including partial
// batches, is TestCompiledModelSimDifferential in internal/batch, where
// both paths run the same deterministic slotwise arithmetic.)
func TestBatchedInferenceMatchesSolo(t *testing.T) {
	_, ts, vres := startBatchedServer(t, Config{
		Workers: 1, BatchMax: 4, BatchWindow: 300 * time.Millisecond,
	})
	ctx := context.Background()
	c := dialRegistered(t, ts.URL, 41)

	stride := c.Spec().BatchStride
	if stride < 4 {
		t.Fatalf("program spec stride %d, want >= 4 (logN 8 leaves spare lanes)", stride)
	}

	const jobs = 3 // one fewer than the lane budget: a partial batch
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			input := testInput(vres.InLayout.L)
			input[0] = float64(g)/7 - 0.2 // distinct data per lane
			errs <- inferChecked(ctx, c, vres, input)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := fetchStatz(t, ts.URL)
	if st.BatchStride != stride || st.BatchLanes != 4 {
		t.Fatalf("statz lanes/stride: %+v", st)
	}
	if st.Served != jobs {
		t.Fatalf("served %d, want %d: %+v", st.Served, jobs, st)
	}
	// All three arrived well inside one 300ms window against a single
	// worker, so at least one multi-request batch must have formed.
	if st.Batches < 1 || st.BatchedJobs < 2 {
		t.Fatalf("no fused evaluation happened: %+v", st)
	}
	if st.Batches == 0 && st.SoloFallbacks == 0 {
		t.Fatalf("counters account for no evaluation at all: %+v", st)
	}
}

// TestBatchedMixedDeadlines coalesces jobs whose deadlines differ: the
// fused run gets the most patient member's deadline and both members
// still complete correctly within their own. A third member hangs up
// once the group is running: its own request ends, its lane-mates'
// evaluation does not.
func TestBatchedMixedDeadlines(t *testing.T) {
	s, ts, vres := startBatchedServer(t, Config{
		Workers: 1, BatchMax: 4, BatchWindow: time.Second,
	})
	c := dialRegistered(t, ts.URL, 42)

	const leaver = "1ea7e000000000000000000000000003"
	leaveCtx, hangUp := context.WithCancel(obs.WithTrace(context.Background(), leaver))
	defer hangUp()
	s.beforeExec = func(j *job) {
		if obs.TraceID(j.ctx) != leaver {
			return
		}
		hangUp()
		select {
		case <-j.ctx.Done():
		case <-time.After(10 * time.Second):
			t.Error("the server never saw the client hang up")
		}
	}

	deadlines := []time.Duration{5 * time.Second, time.Minute, time.Minute}
	var wg sync.WaitGroup
	errs := make(chan error, len(deadlines))
	for g, d := range deadlines {
		wg.Add(1)
		go func(g int, d time.Duration) {
			defer wg.Done()
			parent := context.Background()
			if g == 2 {
				parent = leaveCtx
			}
			rctx, cancel := context.WithTimeout(parent, d)
			defer cancel()
			input := testInput(vres.InLayout.L)
			input[1] = float64(g) / 3
			err := inferChecked(rctx, c, vres, input)
			if g == 2 {
				if !errors.Is(err, context.Canceled) {
					err = fmt.Errorf("the member that hung up got %v, want its own cancellation", err)
				} else {
					err = nil
				}
			}
			errs <- err
		}(g, d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := fetchStatz(t, ts.URL)
	if st.Batches != 1 || st.BatchedJobs != 3 {
		t.Fatalf("the three requests did not share one evaluation: %+v", st)
	}
	if st.Served != 2 || st.TimedOut != 0 || st.Failed != 0 {
		t.Fatalf("mixed-deadline window: %+v", st)
	}
}

// TestBatchedMembersLogOwnTrace: every member of a coalesced group logs
// infer.exec and infer.eval under its own trace id, as a lone request
// does, so one grep still tells each request's whole story.
func TestBatchedMembersLogOwnTrace(t *testing.T) {
	sink := &syncBuffer{}
	_, ts, vres := startBatchedServer(t, Config{
		Workers: 1, BatchMax: 4, BatchWindow: time.Second,
		Logger: slog.New(slog.NewJSONHandler(sink, nil)),
	})
	c := dialRegistered(t, ts.URL, 46)

	traces := []string{"a11ce000000000000000000000000001", "b0b00000000000000000000000000002"}
	var wg sync.WaitGroup
	errs := make(chan error, len(traces))
	for g, trace := range traces {
		wg.Add(1)
		go func(g int, trace string) {
			defer wg.Done()
			input := testInput(vres.InLayout.L)
			input[3] = float64(g) / 4
			errs <- inferChecked(obs.WithTrace(context.Background(), trace), c, vres, input)
		}(g, trace)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := fetchStatz(t, ts.URL); st.Batches != 1 || st.BatchedJobs != 2 {
		t.Fatalf("the two requests did not share one evaluation: %+v", st)
	}
	byMsg := tracesByMsg(jsonEvents(t, sink.String()))
	for _, msg := range []string{"infer.exec", "infer.eval"} {
		for _, trace := range traces {
			if !slices.Contains(byMsg[msg], trace) {
				t.Errorf("%s never logged under member trace %s (got %v)", msg, trace, byMsg[msg])
			}
		}
	}
}

// TestBatchedSoloFallback: a window that closes with one request falls
// back to the solo path — still on the lane-transformed program, so the
// reply carries lane 0 and the client extracts it transparently.
func TestBatchedSoloFallback(t *testing.T) {
	_, ts, vres := startBatchedServer(t, Config{
		Workers: 1, BatchMax: 4, BatchWindow: 10 * time.Millisecond,
	})
	c := dialRegistered(t, ts.URL, 43)
	if err := inferChecked(context.Background(), c, vres, testInput(vres.InLayout.L)); err != nil {
		t.Fatal(err)
	}
	st := fetchStatz(t, ts.URL)
	if st.Served != 1 || st.SoloFallbacks != 1 || st.Batches != 0 {
		t.Fatalf("solo fallback counters: %+v", st)
	}
}

// TestQueueExpiredCounter pins the scheduler observability gap: a job
// whose deadline lapses while queued answers 504 at the handler, and
// when a worker finally dequeues the corpse it must count it under
// queue_expired instead of dropping it silently.
func TestQueueExpiredCounter(t *testing.T) {
	prog, vres := compileLinear(t)
	s, err := New(prog, Config{Workers: 1, QueueDepth: 2})
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
	c := dialRegistered(t, ts.URL, 44)
	c.SetRetryPolicy(fheclient.RetryPolicy{MaxAttempts: 1})
	input := testInput(vres.InLayout.L)

	// Request 1 parks on the gate inside the worker.
	r1 := make(chan error, 1)
	go func() {
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		_, err := c.Infer(rctx, input)
		r1 <- err
	}()
	<-running

	// Request 2 expires while queued: the client sees 504 immediately…
	dctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	_, err = c.Infer(dctx, input)
	var apiErr *fheclient.APIError
	if !errors.As(err, &apiErr) || !apiErr.IsDeadline() {
		t.Fatalf("expected deadline 504, got %v", err)
	}
	if st := fetchStatz(t, ts.URL); st.QueueExpired != 0 {
		t.Fatalf("queue_expired counted before a worker saw the job: %+v", st)
	}

	// …and once the worker drains the queue it counts the corpse.
	release()
	if err := <-r1; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fetchStatz(t, ts.URL)
		if st.QueueExpired == 1 {
			if st.TimedOut != 1 || st.Served != 1 {
				t.Fatalf("counters after expiry: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue_expired never incremented: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	drCtx, drCancel := context.WithTimeout(ctx, 10*time.Second)
	defer drCancel()
	if err := s.Drain(drCtx); err != nil {
		t.Fatal(err)
	}
}

// TestChaosBatchFlushPanic arms batch.flush.panic so a fused evaluation
// dies mid-flight. The blast radius must be exactly that batch: every
// member answers 500 EVAL_PANIC (and the client retry then succeeds),
// the worker survives, and follow-up traffic is served normally.
func TestChaosBatchFlushPanic(t *testing.T) {
	_, ts, vres := startBatchedServer(t, Config{
		Workers: 1, BatchMax: 4, BatchWindow: 300 * time.Millisecond,
	})
	ctx := context.Background()
	c := dialRegistered(t, ts.URL, 45)

	armFaults(t, fault.BatchFlushPanic+":1:0")
	const jobs = 2
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			input := testInput(vres.InLayout.L)
			input[2] = float64(g) / 5
			// The default retry policy retries recovered-panic 500s, so a
			// successful return proves the daemon survived its own batch
			// dying.
			errs <- inferChecked(ctx, c, vres, input)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("inference did not survive an injected batch panic: %v", err)
		}
	}

	st := fetchStatz(t, ts.URL)
	if st.Panics != 1 || st.FaultsFired != 1 {
		t.Fatalf("panic counters did not reconcile: %+v", st)
	}
	// Both members of the doomed batch failed — and only them.
	if st.Failed != jobs {
		t.Fatalf("batch-wide panic failed %d jobs, want exactly %d: %+v", st.Failed, jobs, st)
	}
	if st.Served != jobs {
		t.Fatalf("retries after the panic served %d, want %d: %+v", st.Served, jobs, st)
	}
	// The daemon keeps serving after the blast.
	if err := inferChecked(ctx, c, vres, testInput(vres.InLayout.L)); err != nil {
		t.Fatal(err)
	}
}
