package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"antace/internal/ckksir"
	"antace/internal/fheclient"
	"antace/internal/obs"
	"antace/internal/ring"
	"antace/internal/serve/api"
)

// syncBuffer is a goroutine-safe log sink: worker goroutines and the
// handler goroutine both emit events for the same request.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// jsonEvents parses one slog JSON event per line.
func jsonEvents(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var events []map[string]any
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// tracesByMsg collects, per event name, the set of trace ids seen.
func tracesByMsg(events []map[string]any) map[string][]string {
	out := map[string][]string{}
	for _, ev := range events {
		msg, _ := ev["msg"].(string)
		trace, _ := ev["trace"].(string)
		if msg != "" && trace != "" {
			out[msg] = append(out[msg], trace)
		}
	}
	return out
}

// TestMetricsExposition scrapes /metrics after real traffic and runs the
// page through the package's own strict parser — the grammar a real
// Prometheus scraper enforces. A page that renders but does not parse is
// exactly the bug class this guards against.
func TestMetricsExposition(t *testing.T) {
	s, ts, vres := startServer(t, Config{Workers: 1})
	_ = s
	ctx := context.Background()

	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(7)); err != nil {
		t.Fatal(err)
	}
	input := testInput(vres.InLayout.L)
	if _, err := c.Infer(ctx, input); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != contentTypeExposition {
		t.Errorf("Content-Type = %q, want %q", got, contentTypeExposition)
	}
	page := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("strict parser rejected our own /metrics page: %v\npage:\n%s", err, page)
	}

	for _, name := range []string{
		"ace_requests_served_total", "ace_requests_rejected_total",
		"ace_queue_depth", "ace_workers", "ace_sessions",
		"ace_latency_ms", "ace_queue_wait_seconds", "ace_eval_seconds",
		"ace_op_seconds", "ace_profiled_runs_total", "ace_program_info",
		"ace_plaintext_table_entries", "ace_plaintext_table_bytes",
		"ace_plaintext_table_hits_total", "ace_plaintext_table_misses_total",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if f := fams["ace_requests_served_total"]; f != nil {
		if f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
			t.Errorf("ace_requests_served_total = %+v, want one counter sample of 1", f)
		}
	}
	if f := fams["ace_plaintext_table_entries"]; f != nil {
		byTable := map[string]float64{}
		for _, smp := range f.Samples {
			byTable[smp.Labels["table"]] = smp.Value
		}
		if len(byTable) != 2 || byTable["program"] <= 0 {
			t.Errorf("ace_plaintext_table_entries = %v, want a program and a bootstrap series, the first filled by the inference", byTable)
		}
	}
	if f := fams["ace_eval_seconds"]; f != nil {
		if f.Type != "histogram" {
			t.Errorf("ace_eval_seconds type = %s, want histogram", f.Type)
		}
		count := -1.0
		for _, smp := range f.Samples {
			if smp.Name == "ace_eval_seconds_count" {
				count = smp.Value
			}
		}
		if count != 1 {
			t.Errorf("ace_eval_seconds_count = %v, want 1 after one inference", count)
		}
	}
	if f := fams["ace_op_seconds"]; f != nil {
		ops := map[string]bool{}
		for _, smp := range f.Samples {
			if op := smp.Labels["op"]; op != "" {
				ops[op] = true
			}
		}
		if len(ops) == 0 {
			t.Error("ace_op_seconds carries no op labels after an inference")
		}
	}
	if f := fams["ace_program_info"]; f != nil {
		if len(f.Samples) != 1 || f.Samples[0].Labels["name"] != "linear_infer" {
			t.Errorf("ace_program_info = %+v, want name=linear_infer", f.Samples)
		}
	}
}

// TestProfilezTracksEval: after a few inferences /v1/profilez must show
// per-opcode totals that account for the evaluation wall time — the
// acceptance criterion is agreement within 10%, which holds because the
// per-instruction timer wraps everything the eval loop does per op.
func TestProfilezTracksEval(t *testing.T) {
	s, ts, vres := startServer(t, Config{Workers: 1})
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(9)); err != nil {
		t.Fatal(err)
	}
	input := testInput(vres.InLayout.L)
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := c.Infer(ctx, input); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + api.PathProfilez)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/profilez: status %d body %s", resp.StatusCode, body)
	}
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding profilez: %v\n%s", err, body)
	}
	if snap.Runs != runs {
		t.Errorf("profilez runs = %d, want %d", snap.Runs, runs)
	}
	if len(snap.Ops) == 0 {
		t.Fatal("profilez has no per-opcode rows")
	}
	if snap.OpMsTotal <= 0 || snap.EvalMsTotal <= 0 {
		t.Fatalf("profilez totals: op %gms eval %gms, want both > 0", snap.OpMsTotal, snap.EvalMsTotal)
	}
	if snap.OpMsTotal > snap.EvalMsTotal {
		t.Errorf("op-time sum %gms exceeds eval wall %gms", snap.OpMsTotal, snap.EvalMsTotal)
	}
	// The test program's instructions take microseconds, so the loop's own
	// bookkeeping, and the encodes that hit the weight table and record
	// nothing, are a visible share of a run: allow them 50 µs per run on
	// top of the 10 %.
	if snap.OpMsTotal < 0.9*snap.EvalMsTotal-0.05*runs {
		t.Errorf("op-time sum %gms accounts for <90%% of eval wall %gms", snap.OpMsTotal, snap.EvalMsTotal)
	}
	if len(snap.LastTrajectory) == 0 {
		t.Error("profilez has no level/scale trajectory")
	}
	for _, pt := range snap.LastTrajectory {
		if pt.Level < 0 || pt.Scale <= 0 {
			t.Fatalf("trajectory point %+v has nonsense level/scale", pt)
		}
	}

	// Weights are encoded by the first inference and never again: the
	// profile holds one ckks.encode sample per encode instruction however
	// many runs it folds, and the shared table accounts for the rest.
	encodes := uint64(s.module.Main().InstrCount(ckksir.OpEncode))
	if encodes == 0 {
		t.Fatal("served program has no encode instruction")
	}
	if op, _ := snap.Op(ckksir.OpEncode); op.Count != encodes {
		t.Errorf("profilez holds %d ckks.encode samples over %d runs, want %d: one per weight, from the first run only",
			op.Count, runs, encodes)
	}
	st := s.StatzSnapshot().ProgramTable
	if st.Entries != int(encodes) || st.Bytes <= 0 || st.Misses != encodes || st.Hits != (runs-1)*encodes {
		t.Errorf("statz program table = %+v, want %d entries missed once and hit on each of the %d later runs", st, encodes, runs-1)
	}
	if bt := s.StatzSnapshot().BootstrapTable; bt != (api.TableStatz{}) {
		t.Errorf("statz bootstrap table = %+v for a program that never bootstraps", bt)
	}
}

// TestTracePropagation proves one trace id survives the whole distance:
// set on the client context, sent as X-ACE-Trace, adopted by the server,
// echoed on the response, and present on every structured event the
// request produced — accept, exec, eval and reply, across handler and
// worker goroutines (run under -race).
func TestTracePropagation(t *testing.T) {
	sink := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts, vres := startServer(t, Config{Workers: 2, Logger: logger})
	ctx := context.Background()

	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(5)); err != nil {
		t.Fatal(err)
	}

	const trace = "feedc0de5eedbeeffeedc0de5eedbeef"
	if !obs.ValidTraceID(trace) {
		t.Fatal("test trace id is not valid")
	}
	input := testInput(vres.InLayout.L)
	if _, err := c.Infer(obs.WithTrace(ctx, trace), input); err != nil {
		t.Fatal(err)
	}

	byMsg := tracesByMsg(jsonEvents(t, sink.String()))
	for _, msg := range []string{"infer.accept", "infer.exec", "infer.eval", "infer.reply"} {
		traces := byMsg[msg]
		if len(traces) == 0 {
			t.Errorf("no %s event was logged", msg)
			continue
		}
		for _, got := range traces {
			if got != trace {
				t.Errorf("%s carries trace %q, want %q", msg, got, trace)
			}
		}
	}

	// Header echo: a raw request with a valid client trace gets it back
	// verbatim; an invalid one is replaced with a freshly minted id.
	ct, err := c.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	ctBytes, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	post := func(traceHeader string) string {
		req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathInfer, bytes.NewReader(ctBytes))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.HeaderSession, c.SessionID())
		if traceHeader != "" {
			req.Header.Set(api.HeaderTrace, traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer with trace %q: status %d", traceHeader, resp.StatusCode)
		}
		return resp.Header.Get(api.HeaderTrace)
	}
	if got := post(trace); got != trace {
		t.Errorf("valid client trace echoed as %q, want %q", got, trace)
	}
	if got := post("NOT!a&trace"); !obs.ValidTraceID(got) || got == "NOT!a&trace" {
		t.Errorf("invalid client trace echoed as %q, want a freshly minted valid id", got)
	}
}

// TestObsSmokeAced is the observability smoke test against the real
// binary: boot aced with JSON logs, run a traced inference through the
// client library, strict-parse /metrics, check /v1/profilez accounts for
// the evaluation, then SIGTERM and verify each inference's trace id
// strings the daemon's accept/exec/eval/reply log events together.
func TestObsSmokeAced(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := buildAced(t)
	cmd, url, logs := startAced(t, bin, "-workers", "1")

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(11)); err != nil {
		t.Fatal(err)
	}
	input := make([]float64, c.Spec().VecLen)
	for i := range input {
		input[i] = float64(i%7)/7 - 0.5
	}
	var traces []string // one per inference, in order
	infer := func() {
		trace := fmt.Sprintf("ace0b5e55a0ecafeace0b5e55a0ecaf%x", len(traces))
		if _, err := c.Infer(obs.WithTrace(ctx, trace), input); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trace)
	}
	infer()

	resp, err := http.Get(url + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	fams, err := obs.ParseExposition(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("strict parser rejected the live daemon's /metrics: %v\npage:\n%s", err, page)
	}
	if f := fams["ace_requests_served_total"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Errorf("ace_requests_served_total = %+v, want 1", f)
	}

	// One inference of this program takes about a millisecond, so a
	// scheduling gap on a shared host can cost it the 10 %. Such gaps
	// only widen eval beyond op: up to five inferences, each judged by
	// its own deltas of the profilez totals; the op-time sum must stay
	// below eval wall in every one, and the best must account for it
	// within 10 % plus the 50 µs of loop bookkeeping TestProfilezTracksEval
	// allows.
	var prev obs.ProfileSnapshot
	var runs []string
	for {
		resp, err = http.Get(url + api.PathProfilez)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		var snap obs.ProfileSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("decoding profilez: %v\n%s", err, body)
		}
		if snap.Runs != uint64(len(traces)) || len(snap.Ops) == 0 {
			t.Fatalf("profilez after %d inferences: runs=%d ops=%d", len(traces), snap.Runs, len(snap.Ops))
		}
		op, eval := snap.OpMsTotal-prev.OpMsTotal, snap.EvalMsTotal-prev.EvalMsTotal
		runs = append(runs, fmt.Sprintf("%.3f/%.3f", op, eval))
		if op <= 0 || op > eval {
			t.Errorf("inference %d: op-time sum %gms vs eval wall %gms, want positive and below", len(traces), op, eval)
		}
		if op >= 0.9*eval-0.05 {
			break
		}
		if len(traces) == 5 {
			t.Errorf("no inference's op-time sum is within 10%% + 50µs of its eval wall (op/eval ms: %s)", strings.Join(runs, " "))
			break
		}
		prev = snap
		infer()
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("aced exited uncleanly after SIGTERM: %v\nlogs:\n%s", err, logs.String())
	}

	byMsg := tracesByMsg(jsonEvents(t, logs.String()))
	for _, msg := range []string{"infer.accept", "infer.exec", "infer.eval", "infer.reply"} {
		if got := byMsg[msg]; fmt.Sprint(got) != fmt.Sprint(traces) {
			t.Errorf("daemon logged %s events with traces %q, want one per inference: %q", msg, got, traces)
		}
	}
}

// TestCrashRestartHonorsDeadline is the regression test for the
// recovered-zombie bug: a journaled job whose client asked for a short
// deadline must not be resurrected after that deadline passed. The
// restarted daemon drops it (jobs_resumed stays 0) and a fresh retry
// under the same key re-executes from scratch.
func TestCrashRestartHonorsDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := buildAced(t)
	dataDir := t.TempDir()

	cmdA, urlA, _ := startAced(t, bin,
		"-data-dir", dataDir, "-checkpoint-every", "1", "-instr-delay", "25ms", "-workers", "1")

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, urlA, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessID, err := c.Register(ctx, ring.SeedFromInt(17))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, c.Spec().VecLen)
	for i := range input {
		input[i] = float64(i%9)/9 - 0.4
	}
	ct, err := c.Encrypt(input)
	if err != nil {
		t.Fatal(err)
	}
	ctBytes, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// A short-deadline job: the 25ms instruction delay guarantees it is
	// still running (and checkpointed) when the daemon dies.
	const deadlineMs = 5000
	sent := time.Now()
	go func() {
		req, _ := http.NewRequest(http.MethodPost, urlA+api.PathInfer, bytes.NewReader(ctBytes))
		req.Header.Set(api.HeaderSession, sessID)
		req.Header.Set(api.HeaderIdemKey, "short-fuse")
		req.Header.Set(api.HeaderDeadlineMs, "5000")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitForCheckpoint(t, filepath.Join(dataDir, "jobs"))

	if err := cmdA.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmdA.Process.Wait()

	// Let the journaled deadline expire while the daemon is down.
	time.Sleep(time.Until(sent.Add(deadlineMs*time.Millisecond + 500*time.Millisecond)))

	_, urlB, _ := startAced(t, bin, "-data-dir", dataDir, "-workers", "1")

	// Retry under the same key until recovery settles the entry: the
	// expired job was dropped, so the retry re-executes fresh (200, not a
	// replay) rather than attaching to a zombie.
	var status int
	var replayed bool
	for i := 0; i < 100; i++ {
		status, _, replayed = rawInfer(t, urlB, sessID, "short-fuse", ctBytes)
		if status == http.StatusOK {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if status != http.StatusOK {
		t.Fatalf("retry after expired recovery never succeeded: last status %d", status)
	}
	if replayed {
		t.Error("retry was served as an idempotency replay; the expired job must not have completed")
	}

	st := fetchStatz(t, urlB)
	if st.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", st.Restarts)
	}
	if st.JobsResumed != 0 {
		t.Errorf("jobs_resumed = %d, want 0: an expired job was resurrected", st.JobsResumed)
	}
}

// TestAcedAddrFileFailureDrains: a post-bind startup failure (the addr
// file cannot be written) must exit 1 through the graceful path — drain
// runs and the final counters flush — instead of dying mid-recovery the
// way log.Fatalf used to.
func TestAcedAddrFileFailureDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := buildAced(t)
	badAddrFile := filepath.Join(t.TempDir(), "does-not-exist", "addr")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-addr-file", badAddrFile)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	err := cmd.Run()
	if err == nil {
		t.Fatalf("aced exited 0 despite addr-file failure; logs:\n%s", logs.String())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("aced exit = %v, want exit code 1; logs:\n%s", err, logs.String())
	}
	out := logs.String()
	if !strings.Contains(out, "addr-file write failed") {
		t.Errorf("logs do not report the addr-file failure:\n%s", out)
	}
	if !strings.Contains(out, "drained cleanly") {
		t.Errorf("failure did not route through the drain path:\n%s", out)
	}
	if !strings.Contains(out, "final counters") {
		t.Errorf("final counters were not flushed on the failure path:\n%s", out)
	}
}
