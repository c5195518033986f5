package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ace "antace"
	"antace/internal/cluster"
	"antace/internal/core"
	"antace/internal/fheclient"
	"antace/internal/obs"
	"antace/internal/onnx"
	"antace/internal/ring"
	"antace/internal/serve/api"
	"antace/internal/tensor"
)

const (
	serveShards   = 2
	serveSetups   = 9
	serveFeatures = 64 // the served model is linear 64×10, the daemons' own demo size
	// serveWarmups is how many inferences each client makes in set-up, so
	// connection pools, session caches and the router's adaptive hedge
	// delay have settled before the window opens.
	serveWarmups = 10
	// registerEvery is the schedule's period: one operation in this many
	// drops the client's session and registers a fresh one. A registration
	// takes about as long as 2.5 inferences, so this gives the write path
	// about a tenth of the window and the read path the rest.
	registerEvery = 20
	// sliceLen is how much of the window one processor-time reading covers.
	// /proc counts in hundredths of a second, three daemons' worth.
	sliceLen = time.Second
	// serveOpLimit is the deadline on one operation: 10× a registration.
	serveOpLimit = 5 * time.Second
	serveBudget  = 2e-8
	bootLimit    = 30 * time.Second
)

// proc is a child daemon. done closes once it has been reaped.
type proc struct {
	cmd  *exec.Cmd
	logs bytes.Buffer
	done chan struct{}
}

// startProc launches a daemon and waits for its -addr-file. name tells
// the daemons of one fleet apart.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	addrFile := filepath.Join(dir, name+".addr")
	p := &proc{done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr-file", addrFile, "-log-level", "warn"}, args...)...)
	p.cmd.Env = append(os.Environ(), fmt.Sprintf("ACE_WORKERS=%d", pinnedWorkers), fmt.Sprintf("GOMAXPROCS=%d", pinnedProcs))
	p.cmd.Stdout, p.cmd.Stderr = &p.logs, &p.logs
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = p.cmd.Wait() // killed on stop; the exit status says nothing
		close(p.done)
	}()
	deadline := time.Now().Add(bootLimit)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during boot:\n%s", name, p.logs.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s never became ready:\n%s", name, p.logs.String())
		}
	}
}

func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // fails only if already gone
	<-p.done
}

// fleet is the system under test: shards behind one router.
type fleet struct {
	shards []string
	router string

	mu    sync.Mutex // stop may come from the run-limit timer
	procs []*proc
}

func (f *fleet) start(dir, name, bin string, args ...string) error {
	p, err := startProc(dir, name, bin, args...)
	if err != nil {
		f.stop()
		return err
	}
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	return nil
}

func (f *fleet) stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.procs {
		p.stop()
	}
	f.procs = nil
}

// cpu is the processor time the daemons and the harness, which is the
// client, have used so far.
func (f *fleet) cpu() (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := selfCPU()
	for _, p := range f.procs {
		c, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// freePorts reserves n ports by binding and releasing them: every shard
// must know the full peer list before any shard starts.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

func bootFleet(ctx *runCtx, dir, modelPath string) (*fleet, error) {
	ports, err := freePorts(serveShards + 1)
	if err != nil {
		return nil, err
	}
	f := &fleet{router: fmt.Sprintf("http://127.0.0.1:%d", ports[serveShards])}
	ctx.setCleanup(f.stop)
	for _, p := range ports[:serveShards] {
		f.shards = append(f.shards, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	peers := strings.Join(f.shards, ",")
	for i, url := range f.shards {
		name := fmt.Sprintf("aced%d", i)
		if err := f.start(dir, name, filepath.Join(ctx.binDir, "aced"),
			"-addr", strings.TrimPrefix(url, "http://"), "-model", modelPath, "-workers", "1",
			"-data-dir", filepath.Join(dir, name), "-cluster-self", url, "-cluster-peers", peers); err != nil {
			return nil, err
		}
	}
	if err := f.start(dir, "acerouter", filepath.Join(ctx.binDir, "acerouter"),
		"-addr", strings.TrimPrefix(f.router, "http://"), "-shards", peers); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(bootLimit); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(f.router + api.PathReadyz)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("router never reported ready: %v", err)
		}
	}
}

// inferCounter counts /v1/infer requests on the wire: more requests than
// inference operations means the client retried.
type inferCounter struct{ sent atomic.Int64 }

func (c *inferCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == api.PathInfer {
		c.sent.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// schedule is the client's operation stream, a pure function of the seed.
type schedule struct {
	rng      *rand.Rand
	phase    int
	issued   int
	features int
}

func newSchedule(seed uint64, features int) *schedule {
	rng := rand.New(rand.NewPCG(seed, 0x5E12))
	return &schedule{rng: rng, phase: rng.IntN(registerEvery), features: features}
}

// next returns the next operation: a re-registration, or an inference
// with its input.
func (s *schedule) next() (register bool, input []float64) {
	s.issued++
	if (s.issued+s.phase)%registerEvery == 0 {
		return true, nil
	}
	return false, s.input()
}

func (s *schedule) input() []float64 {
	in := make([]float64, s.features)
	for i := range in {
		in[i] = s.rng.Float64()*2 - 1
	}
	return in
}

// serveClient is the one closed-loop caller, with its own session.
type serveClient struct {
	c     *fheclient.Client
	sched *schedule
	model *onnx.Model
	prog  *core.Compiled
	seed  uint64

	// What the window measured. Times are seconds.
	infers, tracedInfers            []float64
	encrypt, wire, decrypt, regs    []float64
	attempted, succeeded, inferSent int
	regSent                         int
	maxErr                          float64
	expired                         bool
	cpuPerOp                        []float64 // one value per slice, see loop
}

// register drops the current session, if any, and registers a fresh
// one. It returns when fheclient.Register started and how long it took.
func (sc *serveClient) register(ctx context.Context) (time.Time, time.Duration, error) {
	if err := sc.c.Drop(ctx); err != nil {
		return time.Time{}, 0, err
	}
	start := time.Now()
	_, err := sc.c.Register(ctx, ring.SeedFromInt(sc.seed<<32|uint64(sc.sched.issued)))
	return start, time.Since(start), err
}

type serveTimes struct {
	start                  time.Time
	encrypt, wire, decrypt time.Duration
}

func (t serveTimes) total() time.Duration { return t.encrypt + t.wire + t.decrypt }

// infer is one served inference as the client sees it, checked against
// the reference.
func (sc *serveClient) infer(ctx context.Context, input []float64) (serveTimes, error) {
	want, err := refRun(sc.model, tensor.FromData(input, 1, len(input)))
	if err != nil {
		return serveTimes{}, err
	}
	packed, err := sc.prog.Vec.InLayout.Pack(input)
	if err != nil {
		return serveTimes{}, err
	}
	t := serveTimes{start: time.Now()}
	ct, err := sc.c.Encrypt(packed)
	if err != nil {
		return t, err
	}
	t.encrypt = time.Since(t.start)
	out, err := sc.c.InferCipher(ctx, ct)
	t.wire = time.Since(t.start) - t.encrypt
	if err != nil {
		return t, err
	}
	vals, err := sc.c.Decrypt(out)
	t.decrypt = time.Since(t.start) - t.encrypt - t.wire
	if err != nil {
		return t, err
	}
	got, err := sc.prog.Vec.OutLayout.Unpack(vals)
	if err != nil {
		return t, err
	}
	var off float64
	for i := range want.Data {
		off = math.Max(off, math.Abs(got[i]-want.Data[i]))
	}
	sc.maxErr = math.Max(sc.maxErr, off)
	if !(off <= serveBudget) {
		return t, fmt.Errorf("output off by %.3g, budget %.3g", off, serveBudget)
	}
	return t, nil
}

// loop issues operations back to back until the window closes. Every
// sliceLen it closes a slice: what cpu, the processor time of the four
// processes, has grown by since the last one, per operation completed.
// A traced run records spans for every second operation of each kind.
func (sc *serveClient) loop(rec *recorder, root int, window time.Duration, cpu func() (float64, error)) error {
	sliceStart, sliceOps := time.Now(), sc.succeeded
	sliceCPU, err := cpu()
	if err != nil {
		return err
	}
	for end := sliceStart.Add(window); time.Now().Before(end); {
		if now := time.Now(); now.Sub(sliceStart) >= sliceLen {
			used, err := cpu()
			if err != nil {
				return err
			}
			if n := sc.succeeded - sliceOps; n > 0 {
				sc.cpuPerOp = append(sc.cpuPerOp, (used-sliceCPU)/float64(n))
			}
			sliceStart, sliceCPU, sliceOps = now, used, sc.succeeded
		}
		register, input := sc.sched.next()
		opID := sc.sched.issued
		ctx, cancel := context.WithTimeout(context.Background(), serveOpLimit)
		sc.attempted++
		var err error
		if register {
			sc.regSent++
			traced := rec != nil && sc.regSent%2 == 0
			var regStart time.Time
			var d time.Duration
			start := time.Now()
			if regStart, d, err = sc.register(ctx); err == nil {
				sc.regs = append(sc.regs, d.Seconds())
				sc.succeeded++
				if traced {
					id := rec.add(root, opID, "reregister", start, regStart.Add(d))
					rec.add(id, opID, "drop", start, regStart)
					rec.add(id, opID, "register", regStart, regStart.Add(d))
				}
			}
		} else {
			var t serveTimes
			sc.inferSent++
			traced := rec != nil && sc.inferSent%2 == 0
			if t, err = sc.infer(ctx, input); err == nil {
				sc.succeeded++
				sc.encrypt = append(sc.encrypt, t.encrypt.Seconds())
				sc.wire = append(sc.wire, t.wire.Seconds())
				sc.decrypt = append(sc.decrypt, t.decrypt.Seconds())
				if traced {
					sc.tracedInfers = append(sc.tracedInfers, t.total().Seconds())
					id := rec.add(root, opID, "infer", t.start, t.start.Add(t.total()))
					rec.addSeq(id, opID, t.start, []string{"encrypt", "http", "decrypt"},
						[]time.Duration{t.encrypt, t.wire, t.decrypt})
				} else {
					sc.infers = append(sc.infers, t.total().Seconds())
				}
			}
		}
		expired := ctx.Err() != nil
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: operation %d: %v\n", sc.sched.issued, err)
			if expired {
				sc.expired = true
				return nil
			}
		}
	}
	return nil
}

// scrape is the fleet's own account of itself at one instant.
type scrape struct {
	statz                    cluster.ClusterStatz
	queueSum, queueN         float64
	evalSum, evalN           float64
	sessionBytes, storeBytes float64
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (f *fleet) scrape() (*scrape, error) {
	s := &scrape{}
	if err := getJSON(f.router+api.PathStatz, &s.statz); err != nil {
		return nil, err
	}
	for _, st := range s.statz.Shards {
		s.sessionBytes += float64(st.SessionBytes)
		s.storeBytes += float64(st.StoreBytes)
	}
	for _, shard := range f.shards {
		resp, err := http.Get(shard + api.PathMetrics)
		if err != nil {
			return nil, err
		}
		fams, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", shard, err)
		}
		addHistogram(fams["ace_queue_wait_seconds"], &s.queueSum, &s.queueN)
		addHistogram(fams["ace_eval_seconds"], &s.evalSum, &s.evalN)
	}
	return s, nil
}

// addHistogram adds a scraped histogram's _sum and _count samples.
func addHistogram(f *obs.ParsedFamily, sum, n *float64) {
	if f == nil {
		return
	}
	for _, smp := range f.Samples {
		switch smp.Name {
		case f.Name + "_sum":
			*sum += smp.Value
		case f.Name + "_count":
			*n += smp.Value
		}
	}
}

func runServeMixed(ctx *runCtx) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	root := ctx.rec.add(0, 0, "workload", time.Now(), time.Now())
	counter := &inferCounter{}
	hc := &http.Client{Transport: counter}
	bg := context.Background()

	// One caller at a time means one of the four processes works while the
	// others wait for it. Left to the scheduler they are spread over the
	// cores differently in every run, and the processor time of an
	// operation follows the placement (7.8 to 9.4 ms over six runs); on one
	// core it does not (7.4 to 7.9 ms). The daemons inherit the mask.
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: serve_mixed runs unpinned: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "bench: serve_mixed: harness and daemons pinned to processor %d\n", cpu)
	}

	// Set-up, repeated: serialise and compile the model, boot the fleet,
	// then dial, register (keygen, key upload, replication, spill) and
	// warm up.
	var f *fleet
	var sc *serveClient
	var boots []float64
	for i := 0; i < serveSetups; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		dir := filepath.Join(ctx.tmpDir, fmt.Sprintf("fleet%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return o, err
		}
		model, err := onnx.BuildLinear(serveFeatures, 10, 42)
		if err != nil {
			return o, err
		}
		modelPath := filepath.Join(dir, "linear64x10.onnx")
		if err := onnx.Save(model, modelPath); err != nil {
			return o, err
		}
		prog, err := core.Compile(model, ace.TestProfile())
		if err != nil {
			return o, err
		}
		if f, err = bootFleet(ctx, dir, modelPath); err != nil {
			return o, fmt.Errorf("set-up: %w", err)
		}
		sc = &serveClient{model: model, prog: prog, seed: ctx.seed, sched: newSchedule(ctx.seed, serveFeatures)}
		if sc.c, err = fheclient.Dial(bg, f.router, hc); err != nil {
			return o, fmt.Errorf("set-up: %w", err)
		}
		if _, _, err := sc.register(bg); err != nil {
			return o, fmt.Errorf("set-up: %w", err)
		}
		for w := 0; w < serveWarmups; w++ {
			if _, err := sc.infer(bg, sc.sched.input()); err != nil {
				return o, fmt.Errorf("set-up: warm-up: %w", err)
			}
		}
		boots = append(boots, time.Since(start).Seconds())
		if i == serveSetups-1 {
			ctx.rec.add(root, 0, "setup", start, time.Now())
		}
	}
	o.setups, o.setupS = serveSetups, median(boots)

	before, err := f.scrape()
	if err != nil {
		return o, err
	}
	sentBefore := counter.sent.Load()
	start := time.Now()
	if err := sc.loop(ctx.rec, root, time.Duration(ctx.seconds*float64(time.Second)), f.cpu); err != nil {
		return o, err
	}
	o.elapsed = time.Since(start).Seconds()
	ctx.rec.finish(root, time.Now())
	after, err := f.scrape()
	if err != nil {
		return o, err
	}

	o.attempted, o.succeeded = sc.attempted, sc.succeeded
	o.ops, o.tracedOps, o.cpuPerOp = sc.infers, sc.tracedInfers, sc.cpuPerOp
	if sc.expired {
		err = errWatchdog
	}
	if ctx.traced() {
		serveLayers(o.layers, before, after)
		l := o.layers
		l["fheclient.encrypt_ms"] = median(sc.encrypt) * 1e3
		l["fheclient.http_ms_p50"] = median(sc.wire) * 1e3
		l["fheclient.decrypt_ms"] = median(sc.decrypt) * 1e3
		l["fheclient.infer_ms_p99"] = quantile(append(append([]float64(nil), o.ops...), o.tracedOps...), 0.99) * 1e3
		l["fheclient.register_ms_p50"] = median(sc.regs) * 1e3
		l["fheclient.retries"] = float64(counter.sent.Load()-sentBefore) - float64(sc.inferSent)
		l["cluster.router_overhead_ms"] = l["fheclient.http_ms_p50"] - l["serve.queue_wait_ms_mean"] - l["serve.eval_ms_mean"]
		l["vm.logit_max_abs_err"] = sc.maxErr
		if sc.maxErr > 0 {
			l["vm.precision_bits"] = -math.Log2(sc.maxErr)
		}
	}
	return o, err
}

// serveLayers reports what the router and the shards counted during the
// window: counters as differences, gauges as they stood at its end.
func serveLayers(l map[string]float64, before, after *scrape) {
	rb, ra := before.statz.Router, after.statz.Router
	forwarded := float64(ra.Forwarded - rb.Forwarded)
	l["cluster.forwarded"] = forwarded
	l["cluster.failovers"] = float64(ra.Failovers - rb.Failovers)
	l["cluster.hedge_wins"] = float64(ra.HedgeWins - rb.HedgeWins)
	if forwarded > 0 {
		l["cluster.hedged_share"] = float64(ra.Hedged-rb.Hedged) / forwarded
	}
	for ep, sa := range after.statz.Shards {
		sb := before.statz.Shards[ep]
		l["cluster.replica_results"] += float64(sa.ReplicaResults - sb.ReplicaResults)
		l["cluster.replica_sessions"] += float64(sa.ReplicaSessions - sb.ReplicaSessions)
		l["serve.served"] += float64(sa.Served - sb.Served)
		l["serve.rejected"] += float64(sa.Rejected - sb.Rejected)
		l["serve.timed_out"] += float64(sa.TimedOut - sb.TimedOut)
		l["serve.idem_replays"] += float64(sa.IdemReplays - sb.IdemReplays)
		l["serve.session_hits"] += float64(sa.SessionHits - sb.SessionHits)
		l["serve.session_misses"] += float64(sa.SessionMisses - sb.SessionMisses)
		l["store.store_errs"] += float64(sa.StoreErrs - sb.StoreErrs)
		l["store.checkpoint_bytes"] += float64(sa.CheckpointBytes - sb.CheckpointBytes)
	}
	l["serve.session_bytes"] = after.sessionBytes
	l["store.store_bytes"] = after.storeBytes
	if n := after.queueN - before.queueN; n > 0 {
		l["serve.queue_wait_ms_mean"] = (after.queueSum - before.queueSum) / n * 1e3
	}
	if n := after.evalN - before.evalN; n > 0 {
		l["serve.eval_ms_mean"] = (after.evalSum - before.evalSum) / n * 1e3
	}
}
