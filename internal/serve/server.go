// Package serve is the encrypted-inference serving layer: the paper's
// client/server threat model (Figure 2) made operational. A daemon loads
// one compiled FHE program at startup; clients fetch the program spec,
// generate their own key material, upload the public evaluation keys
// once (POST /v1/sessions — they are tens of megabytes, cached under an
// LRU byte budget and reused across requests), then stream ciphertexts
// through POST /v1/infer. A bounded queue feeds a pool of workers, each
// evaluating with its own per-request Evaluator around shared read-only
// parameters, encoder and bootstrapper; deadlines propagate into the
// instruction loop via context, queue overflow answers 429 with
// Retry-After, and SIGTERM drains accepted work before exit.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"antace/internal/batch"
	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/fault"
	"antace/internal/ir"
	"antace/internal/obs"
	"antace/internal/serve/api"
	"antace/internal/vm"
)

// Config tunes the serving layer; zero values select the defaults noted
// on each field.
type Config struct {
	// Workers is the evaluation pool size (default GOMAXPROCS capped at
	// 4 — each evaluation already fans limb work across internal/par).
	Workers int
	// QueueDepth bounds the request queue (default 4×Workers). A full
	// queue answers 429 rather than buffering unbounded ciphertexts.
	QueueDepth int
	// SessionBudget caps resident evaluation-key bytes (default 256 MiB),
	// and with them one key-bundle upload.
	SessionBudget int64
	// DefaultDeadline applies when a request carries no deadline header
	// (default 60s); MaxDeadline clamps client-supplied values
	// (default 10m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// BatchMax > 1 enables cross-request slot batching: concurrent
	// inference requests on the same session that arrive within
	// BatchWindow are packed into spare slot lanes of one shared
	// ciphertext and evaluated together, up to min(BatchMax, stride)
	// jobs per evaluation, where stride = slots/VecLen. The program is
	// lane-transformed at startup (every rotation scaled by the stride,
	// every constant replicated per lane), so clients must encode inputs
	// strided per the spec's BatchStride and extract their lane from
	// replies. 0 or 1 disables batching: every request evaluates alone
	// on the untransformed program. BatchWindow defaults to 20ms when
	// batching is on: latency traded per request for up-to-stride-fold
	// throughput.
	BatchMax    int
	BatchWindow time.Duration

	// DataDir, when set, enables the durability layer: registered key
	// bundles spill to disk, idempotent jobs are journaled, and
	// executions checkpoint so a restarted daemon resumes them. Empty
	// means RAM-only serving (the pre-durability behavior).
	DataDir string
	// DiskBudget caps spilled session bytes on disk (default 1 GiB);
	// oldest-used bundles are evicted past it.
	DiskBudget int64
	// CheckpointEveryN checkpoints a journaled execution every N
	// instructions; CheckpointEvery does so on a wall-clock period.
	// Either (or both) may be set; when neither is, journaled jobs
	// checkpoint every 2s — cheap enough to stay under the overhead
	// budget on deep programs, frequent enough to bound re-execution.
	CheckpointEveryN int
	CheckpointEvery  time.Duration
	// InstrDelay stretches every VM instruction (chaos/e2e knob for
	// making "mid-flight" a wide target; zero in production).
	InstrDelay time.Duration

	// Replicator, when set, receives every durable state change for
	// shipment to a successor shard (see the Replicator interface); nil
	// keeps the exact single-node behavior. Set it here rather than after
	// New so crash-recovery completions — which begin before the listener
	// exists — are replicated too.
	Replicator Replicator

	// OnLeave is invoked (once, on its own goroutine) after this shard
	// acknowledged a cluster update that removes it from the ring: the
	// handoff re-shipped its state, readiness answers 503 "handing-off",
	// and the process should drain and exit. cmd/aced wires this into its
	// shutdown path; nil ignores the signal.
	OnLeave func()

	// Logger receives the server's structured events (request lifecycle,
	// recovery, checkpointing), each carrying the request's trace id. Nil
	// discards them — the daemon always provides one; library users and
	// tests opt in.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server mux.
	// Off by default: the profiler exposes heap contents, which on this
	// server include evaluation-key material.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.SessionBudget <= 0 {
		c.SessionBudget = 256 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.BatchMax > 1 && c.BatchWindow <= 0 {
		c.BatchWindow = 20 * time.Millisecond
	}
	if c.DiskBudget <= 0 {
		c.DiskBudget = 1 << 30
	}
	if c.DataDir != "" && c.CheckpointEveryN <= 0 && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	return c
}

const (
	// maxCipherBytes caps one request ciphertext.
	maxCipherBytes = 64 << 20
	// idemEntries bounds the idempotency result cache: retained
	// successes, in-flight executions uncounted.
	idemEntries = 256
	// retryAfter is the back-off hint on every load-shed answer.
	retryAfter = time.Second
)

// Program is the compiled artifact the daemon serves: the executable
// CKKS module plus the metadata clients need to participate. It is the
// serving-layer view of core.Compiled, kept structural so tests can
// assemble one straight from a ckksir.Result.
type Program struct {
	Name   string
	CKKS   *ckksir.Result
	VecLen int
}

// Server implements the v1 HTTP API over one compiled program.
type Server struct {
	cfg    Config
	name   string
	module *ir.Module
	// prog is module prepared for execution: the one vm.Program every
	// session, worker and batch lane runs, and with it the one table of
	// encoded weights.
	prog *vm.Program
	// ckks is the cost-model view of the served program: the original
	// compile result with Module swapped for the (possibly
	// batch-transformed) module this server actually executes, so
	// /v1/costmodelz prices the schedule the profile measures.
	ckks     *ckksir.Result
	params   *ckks.Parameters
	enc      *ckks.Encoder
	boot     *bootstrap.Bootstrapper
	spec     api.ProgramSpec
	required []uint64 // Galois elements every session must provide
	needRlk  bool

	// Cross-request batching: stride is the lane spacing the served
	// module was transformed for (1 = batching off), maxLanes the most
	// jobs one evaluation carries, and coal the per-session coalescing
	// window every request passes on its way to the queue (with one lane
	// it hands each request straight on).
	stride   int
	maxLanes int
	coal     *batch.Coalescer[*job]

	sessions *sessionCache
	sched    *scheduler
	idem     *idemCache
	stats    counters
	lat      *obs.Window // milliseconds
	mux      *http.ServeMux

	// Observability: structured logs, per-opcode profile aggregation and
	// the request-level histograms behind /metrics.
	log       *slog.Logger
	prof      *obs.Aggregate
	queueWait *obs.Histogram
	evalHist  *obs.Histogram

	// dur is the disk tier; nil without a DataDir. restarts is the data
	// dir's prior start count, fixed at boot.
	dur      *durable
	restarts uint64

	// repl ships durable state to a successor shard; nil outside cluster
	// wiring. recovering counts journaled jobs crash recovery is still
	// re-executing — readiness answers 503 until it reaches zero, so a
	// router never routes to a shard whose idempotency state is still
	// being rebuilt.
	repl       Replicator
	recovering atomic.Int64
	// handingOff is set when a cluster update removed this shard from the
	// ring: state re-shipped, readiness 503s, exit imminent. leaveOnce
	// guards the OnLeave callback.
	handingOff atomic.Bool
	leaveOnce  sync.Once

	mu       sync.RWMutex // guards draining/stopped vs. queue sends and close
	draining bool
	// stopped is set after the coalescer's final sweep and before the
	// queue closes; submit checks it under mu so no send can race the
	// close.
	stopped bool

	// beforeExec is a test hook invoked by workers ahead of evaluation;
	// nil outside tests.
	beforeExec func(*job)
}

// New builds a server for a compiled program: parameters and (when the
// program bootstraps) the bootstrap circuit are instantiated once here
// and shared read-only across all workers and sessions.
func New(prog Program, cfg Config) (*Server, error) {
	res := prog.CKKS
	if res == nil || res.Module == nil || res.Module.Main() == nil {
		return nil, fmt.Errorf("serve: program has no executable module")
	}
	cfg = cfg.withDefaults()
	params, err := ckks.NewParameters(res.Literal)
	if err != nil {
		return nil, err
	}

	// Cross-request batching: when the ring has spare slot capacity
	// (stride = slots/VecLen > 1), serve a lane-transformed clone of the
	// module — every rotation scaled by the stride, every constant
	// replicated across lanes — so up to min(BatchMax, stride) packed
	// inputs evaluate in one pass. The transform preserves per-slot
	// semantics exactly (see internal/batch), so stride 1 and batching
	// off serve byte-identical programs.
	module := res.Module
	stride := 1
	if cfg.BatchMax > 1 {
		stride = batch.Stride(params.Slots(), prog.VecLen)
	}
	maxLanes := 1
	var rotations []int
	if stride > 1 {
		bmod, terr := batch.Transform(res.Module, stride)
		if terr != nil {
			return nil, fmt.Errorf("serve: batch transform: %w", terr)
		}
		module = bmod
		maxLanes = min(cfg.BatchMax, stride)
		rotations = batch.Rotations(bmod)
		// Packing rotates job b's lane-0 ciphertext by −b before the
		// additive merge, so the session needs those Galois keys too.
		for b := 1; b < maxLanes; b++ {
			rotations = append(rotations, -b)
		}
	} else {
		rotations = append([]int(nil), res.Rotations...)
	}

	var bt *bootstrap.Bootstrapper
	conj := false
	if res.Boot != nil {
		if bt, err = bootstrap.NewBootstrapper(params, *res.Boot, res.InputScale); err != nil {
			return nil, err
		}
		// Bootstrap rotations are over the full slot count and
		// lane-oblivious; they are never stride-scaled.
		rotations = append(rotations, bt.RequiredRotations()...)
		conj = true
	}
	slices.Sort(rotations)
	rotations = slices.Compact(rotations)

	paramBytes, err := res.Literal.MarshalBinary()
	if err != nil {
		return nil, err
	}
	specStride := 0
	if stride > 1 {
		specStride = stride
	}
	vmProg, err := vm.Prepare(module)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ckksView := *res
	ckksView.Module = module
	s := &Server{
		cfg:      cfg,
		name:     prog.Name,
		module:   module,
		prog:     vmProg,
		ckks:     &ckksView,
		params:   params,
		enc:      ckks.NewEncoder(params),
		boot:     bt,
		stride:   stride,
		maxLanes: maxLanes,
		spec: api.ProgramSpec{
			Name:        prog.Name,
			Params:      paramBytes,
			LogN:        res.Literal.LogN,
			VecLen:      prog.VecLen,
			InputLevel:  res.InputLevel,
			InputScale:  res.InputScale,
			Rotations:   rotations,
			Conjugation: conj,
			NeedRlk:     true,
			Bootstraps:  res.Bootstraps,
			BatchStride: specStride,
		},
		needRlk:   true,
		sessions:  newSessionCache(cfg.SessionBudget),
		idem:      newIdemCache(idemEntries),
		lat:       obs.NewWindow(obs.StatzWindow),
		repl:      cfg.Replicator,
		log:       cfg.Logger,
		prof:      obs.NewAggregate(),
		queueWait: obs.NewHistogram(nil),
		evalHist:  obs.NewHistogram(nil),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	rQ := params.RingQ()
	for _, k := range rotations {
		s.required = append(s.required, rQ.GaloisElementForRotation(k))
	}
	if conj {
		s.required = append(s.required, rQ.GaloisElementForConjugation())
	}
	s.sched = newScheduler(cfg.QueueDepth, cfg.Workers, s.run,
		func(*job) { s.stats.queueExpired.Add(1) })
	s.coal = batch.NewCoalescer(cfg.BatchWindow, maxLanes, func(jobs []*job, final bool) {
		// With one lane every flush is a singleton: only a window that
		// could have shared its evaluation counts as a solo fallback.
		if len(jobs) == 1 && maxLanes > 1 {
			s.stats.soloFallbacks.Add(1)
		}
		s.submit(jobs, final)
	})

	if cfg.DataDir != "" {
		if err := s.openDurability(); err != nil {
			s.sched.stop()
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathProgram, s.handleProgram)
	mux.HandleFunc("POST "+api.PathSessions, s.handleRegister)
	mux.HandleFunc("DELETE "+api.PathSessions+"/{id}", s.handleDrop)
	mux.HandleFunc("POST "+api.PathInfer, s.handleInfer)
	mux.HandleFunc("GET "+api.PathHealthz, s.handleHealthz)
	mux.HandleFunc("GET "+api.PathReadyz, s.handleReadyz)
	mux.HandleFunc("POST "+api.PathReplica, s.handleReplicaApply)
	mux.HandleFunc("POST "+api.PathClusterUpdate, s.handleClusterUpdate)
	mux.HandleFunc("GET "+api.PathClusterMembership, s.handleClusterMembership)
	mux.HandleFunc("GET "+api.PathStatz, s.handleStatz)
	mux.HandleFunc("GET "+api.PathProfilez, s.handleProfilez)
	mux.HandleFunc("GET "+api.PathCostmodelz, s.handleCostmodelz)
	mux.HandleFunc("GET "+api.PathMetrics, s.handleMetrics)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// openDurability attaches the disk tier and runs crash recovery: replay
// the job journal, seed the idempotency cache with journaled successes,
// claim and re-enqueue every pending job (resuming from its checkpoint
// when one survives), then compact the journal and prune orphan
// checkpoint files. Called from New before the listener exists, so a
// post-restart retry can never race recovery for job ownership.
func (s *Server) openDurability() error {
	dur, st, err := openDurable(s.cfg.DataDir, s.cfg.DiskBudget, idemEntries)
	if err != nil {
		return err
	}
	s.dur = dur
	s.restarts = dur.bumpRestarts()

	// Journaled successes become pre-completed idempotency entries:
	// post-restart retries replay them bit for bit. Oldest first, so the
	// LRU retains the most recent idemEntries of them.
	for _, key := range st.retained(idemEntries) {
		s.idem.restore(st.completed[key])
	}

	// Compact to live state and drop checkpoints with no pending accept,
	// so a crash loop cannot accrete journal or checkpoint garbage. This
	// must happen before any recovery job runs: rewrite rebuilds the log
	// purely from the replayed fold, so a completion appended by a fast
	// recovered job would be silently discarded by a later rewrite.
	dur.mu.Lock()
	if err := dur.rewrite(st); err != nil {
		dur.storeErrs.Add(1)
	}
	dur.mu.Unlock()
	dur.pruneCheckpoints(st)

	// Claim every pending job's idempotency entry synchronously; the
	// actual re-execution runs in the background once workers exist. The
	// recovering gauge is raised here, before any goroutine starts, so
	// readiness observes the full backlog from the first probe.
	for _, key := range st.order {
		entry, owner := s.idem.begin(key)
		if !owner {
			continue
		}
		s.recovering.Add(1)
		go s.recoverJob(key, st.pending[key], entry)
	}
	return nil
}

// recoverJob finishes one journaled in-flight job after a restart. Any
// failure settles the idempotency entry as failed — followers get 503
// and the client's retry loop re-executes from scratch.
//
// The recovered job runs under the client's journaled deadline, not a
// fresh MaxDeadline: a client that asked for 2s of work must not have
// its job resurrected into a 10-minute zombie occupying a worker long
// after the caller gave up. Jobs whose deadline already passed are
// dropped outright (journaled as forgotten, so a retry re-executes).
func (s *Server) recoverJob(key string, a record, entry *idemEntry) {
	defer s.recovering.Add(-1)
	trace := obs.NewTraceID()
	log := s.log.With(slog.String("trace", trace), slog.String("idem_key", key))
	if err := fault.Inject(fault.ServeRecoverErr); err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
	budget := s.cfg.MaxDeadline
	if a.deadlineMs != 0 {
		deadline := time.UnixMilli(a.deadlineMs)
		rem := time.Until(deadline)
		if rem <= 0 {
			log.Info("recover.expired", slog.Time("deadline", deadline))
			s.completeIdem(entry, false, nil, 0, 0)
			return
		}
		if rem < budget {
			budget = rem
		}
	}
	sess, ok := s.lookupSession(a.sessID)
	if !ok {
		// The keys did not survive (disk eviction or RAM-only
		// registration); the client re-registers and re-executes.
		log.Info("recover.nosession", slog.String("session", a.sessID))
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
	ct := &ckks.Ciphertext{}
	if err := ct.UnmarshalBinary(a.body); err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
	ctx, cancel := context.WithTimeout(obs.WithTrace(context.Background(), trace), budget)
	defer cancel()
	resume := s.dur.readCheckpoint(key)
	log.Info("recover.start",
		slog.String("session", a.sessID),
		slog.Duration("budget", budget),
		slog.Bool("checkpoint", resume != nil))
	// A one-member group that waits for queue space rather than bouncing
	// 429 (nobody is holding an HTTP connection open for it), and never
	// coalesces: its checkpoint, if any, is one machine's mid-execution
	// state.
	j := &job{ctx: ctx, sess: sess, ct: ct, done: make(chan jobResult, 1),
		enqueued: time.Now(), idemKey: key, resume: resume}
	s.submit([]*job{j}, true)
	res := <-j.done
	if res.err != nil {
		log.Warn("recover.failed", slog.String("err", res.err.Error()))
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
	out, err := res.ct.MarshalBinary()
	if err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
	s.completeIdem(entry, true, out, res.lane, res.stride)
	s.stats.served.Add(1)
	log.Info("recover.done")
}

// lookupSession resolves a session id through both tiers: the RAM LRU
// first, then the disk spill, promoting a hit back into RAM so repeat
// requests pay the decode once.
func (s *Server) lookupSession(id string) (*session, bool) {
	if sess, ok := s.sessions.get(id); ok {
		return sess, true
	}
	if s.dur == nil {
		return nil, false
	}
	raw, err := s.dur.loadSession(id)
	if err != nil {
		return nil, false
	}
	keys := &ckks.EvaluationKeySet{}
	if err := keys.UnmarshalBinary(raw); err != nil {
		s.dur.storeErrs.Add(1)
		return nil, false
	}
	sess, err := s.sessions.putWithID(id, keys, int64(len(raw)))
	if err != nil {
		return nil, false
	}
	s.stats.sessionsRecovered.Add(1)
	return sess, true
}

// ServeHTTP dispatches to the v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Spec returns the program spec served at /v1/program.
func (s *Server) Spec() api.ProgramSpec { return s.spec }

// Drain stops accepting inference work, waits for every accepted request
// to finish (each carries a deadline, so the wait is bounded), then
// stops the workers. Safe to call once; the HTTP listener should be shut
// down alongside it.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		// Order matters: close the coalescer to new arrivals and sweep
		// its open windows into the queue first (blocking — accepted work
		// must run), then flip stopped so nothing can send again, then
		// close the queue.
		s.coal.CloseAndFlush()
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		s.sched.stop()
		if s.dur != nil {
			s.dur.close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Sentinel results for jobs that never reached a worker; finish maps
// them onto 429 and 503.
var (
	errQueueFull    = errors.New("serve: queue full")
	errDrainingDrop = errors.New("serve: server draining")
)

// submit hands one group to the worker queue; every member learns the
// outcome on its done channel. A full queue load-sheds (each member
// answers 429) unless block is set: the drain-time sweep and crash
// recovery wait for space instead, because their members were already
// accepted and must run. Once the server has stopped, every member
// answers 503. Holding the read lock across the send pairs with Drain's
// write-locked stopped flip, so no send races the queue close.
func (s *Server) submit(jobs []*job, block bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	err := errDrainingDrop
	if !s.stopped {
		g := &batchGroup{jobs: jobs}
		if block {
			s.sched.queue <- g
			return
		}
		select {
		case s.sched.queue <- g:
			return
		default:
			err = errQueueFull
		}
	}
	for _, j := range jobs {
		j.done <- jobResult{err: err}
	}
}

// run is the worker entry point and the one executor: every inference,
// alone or coalesced, evaluates here as a group, and every member's
// done channel is settled here. Member b's lane-0 ciphertext is rotated
// into lane b (Rotate by −b costs one key switch, no level) and summed
// into one packed ciphertext — lanes are disjoint by construction, so
// the addition is exact — and the served module runs once; every member
// receives the same output tagged with its lane. A one-member group
// packs nothing.
//
// run is also the serve-side panic and failure boundary: vm.RunCtx
// recovers panics below itself, and the recover here catches everything
// outside it — test hooks, machine construction, packing, the
// serve.worker.panic and batch.flush.panic injection points. A panic or
// evaluation error fails every member of this group and nothing outside
// it: the worker survives, the pool keeps its size, and the now-suspect
// pooled scratch is discarded rather than recycled.
func (s *Server) run(g *batchGroup) {
	// A member whose input is not at the compiled level/scale would
	// poison the whole pack; fail it alone before touching the others.
	jobs := g.jobs[:0]
	for _, j := range g.jobs {
		if j.ct.Level() != s.spec.InputLevel || !vm.ScaleClose(j.ct.Scale, s.spec.InputScale) {
			j.done <- jobResult{err: fmt.Errorf("serve: input at level %d scale %g, compiled for level %d scale %g",
				j.ct.Level(), j.ct.Scale, s.spec.InputLevel, s.spec.InputScale)}
			continue
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return
	}

	var out *ckks.Ciphertext
	var err error
	defer func() {
		if rec := recover(); rec != nil {
			s.params.DiscardScratch()
			out, err = nil, fault.FromPanic("serve.worker", rec)
		}
		var re *fault.RuntimeError
		if errors.As(err, &re) && re.Code == fault.CodeEvalPanic {
			s.stats.panics.Add(1)
		}
		for b, j := range jobs {
			j.done <- jobResult{ct: out, lane: b, stride: s.stride, err: err}
		}
	}()
	ctx, cancel := runContext(jobs)
	defer cancel()

	for _, j := range jobs {
		if s.beforeExec != nil {
			s.beforeExec(j)
		}
		wait := time.Since(j.enqueued)
		s.queueWait.Observe(wait)
		obs.Logger(j.ctx, s.log).Info("infer.exec",
			slog.Duration("queue_wait", wait), slog.Int("lanes", len(jobs)))
	}
	fault.InjectPanic(fault.ServeWorkerPanic)
	if len(jobs) > 1 {
		s.stats.batches.Add(1)
		s.stats.batchedJobs.Add(uint64(len(jobs)))
		fault.InjectPanic(fault.BatchFlushPanic)
	}

	m := vm.NewMachine(s.params, jobs[0].sess.keys, s.boot, s.enc)
	m.StepDelay = s.cfg.InstrDelay
	m.Prof = obs.NewRunProfile()
	in := jobs[0].ct
	for b := 1; b < len(jobs); b++ {
		var rot *ckks.Ciphertext
		if rot, err = m.Eval.Rotate(jobs[b].ct, -b); err == nil {
			in, err = m.Eval.Add(in, rot)
		}
		if err != nil {
			err = fmt.Errorf("serve: packing lane %d: %w", b, err)
			return
		}
	}
	// Only a group that is one journaled job checkpoints and resumes: a
	// shared machine's snapshot belongs to no member alone.
	if j := jobs[0]; len(jobs) == 1 && s.dur != nil && j.idemKey != "" {
		log := obs.Logger(j.ctx, s.log)
		m.Ckpt = &vm.CheckpointPolicy{
			EveryN: s.cfg.CheckpointEveryN,
			Every:  s.cfg.CheckpointEvery,
			Sink: func(snap []byte) error {
				log.Debug("infer.checkpoint", slog.Int("bytes", len(snap)))
				return s.dur.writeCheckpoint(j.idemKey, snap)
			},
		}
		// A bad checkpoint is not fatal: fall back to re-executing the
		// journaled input from instruction 0.
		if j.resume != nil && m.Restore(s.module, j.resume) == nil {
			in = nil
			s.stats.jobsResumed.Add(1)
		}
	}

	evalStart := time.Now()
	out, err = m.RunCtx(ctx, s.module, in)
	eval := time.Since(evalStart)
	s.evalHist.Observe(eval)
	s.prof.Merge(m.Prof, eval)
	for _, j := range jobs {
		log := obs.Logger(j.ctx, s.log)
		if err != nil {
			log.Warn("infer.eval", slog.Duration("eval", eval), slog.String("err", err.Error()))
		} else {
			log.Info("infer.eval", slog.Duration("eval", eval),
				slog.Uint64("instrs", m.Prof.Steps()))
		}
	}
}

// runContext is the context a group evaluates under. A one-member group
// runs under its member's own context. A larger group serves every
// member, so it runs until the most patient member's deadline (every
// job carries one: handleInfer and recoverJob both set it) and is
// cancelled early only once every member's context is done — one
// caller hanging up never voids its lane-mates' work.
func runContext(jobs []*job) (context.Context, context.CancelFunc) {
	if len(jobs) == 1 {
		return jobs[0].ctx, func() {}
	}
	var latest time.Time
	for _, j := range jobs {
		if d, _ := j.ctx.Deadline(); d.After(latest) {
			latest = d
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), latest)
	var live atomic.Int64
	live.Store(int64(len(jobs)))
	stops := make([]func() bool, len(jobs))
	for i, j := range jobs {
		stops[i] = context.AfterFunc(j.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// setRetryAfter stamps the back-off hint on a response about to carry a
// retryable rejection (429 queue-full, 503 draining or recovering):
// every load-shed answer tells the client when to come back, so routers
// and retry loops back off instead of hammering.
func setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
}

// readBody reads a bounded octet-stream body.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.spec)
}

// validateKeys rejects bundles that would fail mid-request: the server
// checks key completeness at registration time, when the client can
// still fix it, rather than at evaluation time.
func (s *Server) validateKeys(keys *ckks.EvaluationKeySet) error {
	if s.needRlk && keys.Rlk == nil {
		return fmt.Errorf("bundle is missing the relinearization key")
	}
	var missing []uint64
	for _, gal := range s.required {
		if _, err := keys.GaloisKeyFor(gal); err != nil {
			missing = append(missing, gal)
		}
	}
	if len(missing) > 0 {
		if len(missing) > 8 {
			return fmt.Errorf("bundle is missing %d Galois keys (first: %v)", len(missing), missing[:8])
		}
		return fmt.Errorf("bundle is missing Galois keys for elements %v", missing)
	}
	return nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, s.cfg.SessionBudget)
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "key upload: %v", err)
		return
	}
	keys := &ckks.EvaluationKeySet{}
	if err := keys.UnmarshalBinary(body); err != nil {
		api.WriteError(w, http.StatusBadRequest, "decoding key bundle: %v", err)
		return
	}
	if err := s.validateKeys(keys); err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A cluster router pre-assigns the session id (X-ACE-Session on the
	// registration) so the id's hash placement is decided before the id
	// exists anywhere: the router mints it, picks this shard by ring
	// lookup, and every process can later re-derive primary and replica
	// from the id alone. Anything but the exact api.NewID shape is
	// rejected — ids become file names and ring keys.
	var sess *session
	if want := r.Header.Get(api.HeaderSession); want != "" {
		if !api.ValidID(want) {
			api.WriteError(w, http.StatusBadRequest, "pre-assigned session id must be 32 lowercase hex characters")
			return
		}
		sess, err = s.sessions.putWithID(want, keys, int64(len(body)))
	} else {
		sess, err = s.sessions.put(keys, int64(len(body)))
	}
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	if s.dur != nil {
		// Spill the bundle so the session survives both RAM eviction and
		// restarts. Fail open: a disk error leaves the session RAM-only
		// and is counted in storeErrs rather than failing registration.
		_ = s.dur.saveSession(sess.id, body)
	}
	if s.repl != nil {
		// Synchronous: when the 201 below reaches the client, the replica
		// already holds the keys — that is what makes shard death cost
		// zero re-registration. Fail open past retries (counted); a lone
		// surviving shard still serves.
		rec, err := record{kind: recSession, key: sess.id, body: body}.encode()
		if err == nil {
			err = s.repl.ShipSession(sess.id, rec.raw)
		}
		if err != nil {
			s.stats.replicaShipErrs.Add(1)
			s.log.Warn("replica.ship.session", slog.String("session", sess.id),
				slog.String("err", err.Error()))
		}
	}
	api.WriteJSON(w, http.StatusCreated, api.SessionReply{
		SessionID: sess.id,
		KeyBytes:  sess.bytes,
		GaloisLen: len(keys.Galois),
	})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ram := s.sessions.drop(id)
	disk := s.dur != nil && s.dur.dropSession(id)
	if !ram && !disk {
		api.WriteError(w, http.StatusNotFound, "unknown session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// deadline resolves the per-request deadline from the header, clamped to
// the configured maximum.
func (s *Server) deadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(api.HeaderDeadlineMs)
	if h == "" {
		return s.cfg.DefaultDeadline, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad %s header %q", api.HeaderDeadlineMs, h)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// maxIdemKeyBytes caps the client-chosen idempotency key. Keys are
// journaled behind uint16 length framing and live in in-memory maps for
// the LRU's lifetime, so an unbounded header is rejected with 400.
const maxIdemKeyBytes = 256

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(api.HeaderSession)
	if id == "" {
		id = r.URL.Query().Get("session")
	}
	if id == "" {
		api.WriteError(w, http.StatusBadRequest, "missing %s header", api.HeaderSession)
		return
	}
	idemKey := r.Header.Get(api.HeaderIdemKey)
	if len(idemKey) > maxIdemKeyBytes {
		// The key becomes a journal record field behind a uint16 length —
		// an unbounded client string is a framing hazard, not a retry token.
		api.WriteError(w, http.StatusBadRequest, "%s of %d bytes exceeds the %d-byte limit",
			api.HeaderIdemKey, len(idemKey), maxIdemKeyBytes)
		return
	}
	d, err := s.deadline(r)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := readBody(w, r, maxCipherBytes)
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "ciphertext: %v", err)
		return
	}
	ct := &ckks.Ciphertext{}
	if err := ct.UnmarshalBinary(body); err != nil {
		api.WriteError(w, http.StatusBadRequest, "decoding ciphertext: %v", err)
		return
	}
	sess, ok := s.lookupSession(id)
	if !ok {
		// Stamp the adopted membership epoch: a 404 here after a topology
		// change usually means the client's endpoint list is stale, and
		// the epoch tells it to re-fetch /v1/cluster/membership.
		s.stampEpoch(w)
		api.WriteError(w, http.StatusNotFound, "unknown session %s (register keys first)", id)
		return
	}

	// One trace id per request, minted here unless the client supplied a
	// valid one, echoed on the response and attached to the context so
	// every structured event — accept through reply, including worker
	// events on other goroutines — carries the same greppable id.
	trace := r.Header.Get(api.HeaderTrace)
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	w.Header().Set(api.HeaderTrace, trace)
	deadline := time.Now().Add(d)

	ctx, cancel := context.WithTimeout(obs.WithTrace(r.Context(), trace), d)
	defer cancel()
	log := obs.Logger(ctx, s.log)
	log.Info("infer.accept",
		slog.String("session", sess.id),
		slog.String("idem_key", idemKey),
		slog.Int64("deadline_ms", d.Milliseconds()),
		slog.Int("cipher_bytes", len(body)))

	// Idempotency: a keyed request either owns the execution, replays a
	// stored success bit for bit, or attaches to the in-flight attempt.
	// Owned keyed executions are additionally journaled (with the input
	// ciphertext) before entering the queue, so a crash at any later
	// point leaves enough on disk to finish the job after restart.
	var entry *idemEntry
	var idemFull string
	if idemKey != "" {
		idemFull = sess.id + "/" + idemKey
		var owner bool
		entry, owner = s.idem.begin(idemFull)
		if !owner {
			s.followIdem(w, ctx, entry, d)
			return
		}
		if s.dur != nil {
			// Fail open on a journal error: the job still runs, it just
			// will not survive a crash (counted in storeErrs).
			_ = s.dur.accept(idemFull, sess.id, deadline, body)
		}
	}

	// Admission: the job joins its session's coalescing window (with one
	// lane it is handed on at once); submit performs the queue send and
	// reports load shedding through the job's done channel, which finish
	// maps to 429. A closed coalescer means the server is draining.
	j := &job{ctx: ctx, sess: sess, ct: ct, done: make(chan jobResult, 1), enqueued: time.Now(), idemKey: idemFull}
	if s.coal.Add(sess.id, j) {
		log.Info("infer.enqueue", slog.Int("queue_depth", len(s.sched.queue)))
	} else {
		j.done <- jobResult{err: errDrainingDrop}
	}

	select {
	case res := <-j.done:
		s.finish(w, j, entry, res)
	case <-ctx.Done():
		// Still queued or mid-evaluation; the worker observes the same
		// context and abandons the job. The idempotency entry dies with
		// the attempt — the execution did not complete, so a retry must
		// re-execute.
		s.completeIdem(entry, false, nil, 0, 0)
		log.Info("infer.reply", slog.String("outcome", "timeout"))
		s.failCtx(w, ctx.Err(), d)
	}
}

// followIdem serves a request whose idempotency key is already known:
// wait for the owning execution (bounded by our own deadline), then
// replay its stored bytes, or — when the owner failed — answer 503 so
// the client's retry loop re-issues against a now-clean key.
func (s *Server) followIdem(w http.ResponseWriter, ctx context.Context, entry *idemEntry, d time.Duration) {
	select {
	case <-entry.done:
	case <-ctx.Done():
		s.failCtx(w, ctx.Err(), d)
		return
	}
	if !entry.ok {
		setRetryAfter(w)
		api.WriteError(w, http.StatusServiceUnavailable, "previous attempt under this idempotency key failed; retry")
		return
	}
	s.stats.idemReplays.Add(1)
	w.Header().Set("Content-Type", api.ContentTypeBinary)
	w.Header().Set(api.HeaderIdemReplayed, "1")
	setLaneHeaders(w, entry.res.lane, entry.res.stride)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(entry.res.body)
}

// completeIdem finalizes an owned idempotency entry; nil entries (no key
// on the request) are ignored. A success is encoded once, as the complete
// record carrying the reply bytes and, for a batched result, the lane the
// caller's slots live in: the journal appends those bytes for
// post-restart replay, the replicator ships them, and the retained entry
// replays from them — in memory, after a restart or on a replica, with
// the lane headers of the original response. A failure (or an abandoned
// attempt) journals a forget so a retry re-executes rather than resuming
// a doomed checkpoint.
func (s *Server) completeIdem(entry *idemEntry, ok bool, body []byte, lane, stride int) {
	if entry == nil {
		return
	}
	var res record
	if ok {
		var err error
		res, err = record{kind: recComplete, key: entry.key, lane: lane, stride: stride, body: body}.encode()
		ok = err == nil // a result the record cannot frame is settled as failed
	}
	if s.dur != nil {
		if ok {
			s.dur.complete(res)
		} else {
			s.dur.forget(entry.key)
		}
	}
	if s.repl != nil && ok {
		// Asynchronous: the settlement rides the shipper's ordered queue,
		// off the reply path, so a failover retry replays bit-identically.
		// A failure ships nothing: a replicated forget crossing another
		// shard's legitimate completion (a hedged duplicate losing the
		// race) would destroy a settled result.
		s.repl.Ship(idemSession(entry.key), res.raw)
	}
	s.idem.complete(entry, ok, res)
}

// finish writes every settled job's response, the 429/503 of a job that
// never reached a worker included. Evaluation failures carry a stable
// code from the fault taxonomy so clients and dashboards can
// distinguish a recovered worker panic from an ordinary evaluation
// error without parsing message text.
func (s *Server) finish(w http.ResponseWriter, j *job, entry *idemEntry, res jobResult) {
	log := obs.Logger(j.ctx, s.log)
	if res.err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
			log.Info("infer.reply", slog.String("outcome", "timeout"))
			// A group's run reports its own context; answer from ours.
			s.failCtx(w, cmp.Or(j.ctx.Err(), res.err), 0)
			return
		}
		if errors.Is(res.err, errQueueFull) {
			s.stats.rejected.Add(1)
			log.Info("infer.reject", slog.Int("queue_depth", s.cfg.QueueDepth))
			setRetryAfter(w)
			api.WriteError(w, http.StatusTooManyRequests, "queue full (%d deep)", s.cfg.QueueDepth)
			return
		}
		if errors.Is(res.err, errDrainingDrop) {
			setRetryAfter(w)
			api.WriteError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.stats.failed.Add(1)
		re := fault.AsRuntime(fault.CodeEvalError, "serve.infer", res.err)
		log.Warn("infer.reply", slog.String("outcome", "error"), slog.String("code", re.Code))
		api.WriteJSON(w, http.StatusInternalServerError,
			api.ErrorReply{Error: fmt.Sprintf("evaluation failed: %v", res.err), Code: re.Code})
		return
	}
	out, err := res.ct.MarshalBinary()
	if err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		s.stats.failed.Add(1)
		api.WriteJSON(w, http.StatusInternalServerError,
			api.ErrorReply{Error: fmt.Sprintf("encoding result: %v", err), Code: fault.CodeEvalError})
		return
	}
	s.completeIdem(entry, true, out, res.lane, res.stride)
	s.stats.served.Add(1)
	s.lat.Add(float64(time.Since(j.enqueued)) / float64(time.Millisecond))
	log.Info("infer.reply", slog.String("outcome", "ok"),
		slog.Duration("total", time.Since(j.enqueued)), slog.Int("bytes", len(out)))
	w.Header().Set("Content-Type", api.ContentTypeBinary)
	setLaneHeaders(w, res.lane, res.stride)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// setLaneHeaders tags a batched reply with the caller's lane; solo
// replies (stride <= 1) stay header-free, keeping the unbatched wire
// format byte-identical to the pre-batching server.
func setLaneHeaders(w http.ResponseWriter, lane, stride int) {
	if stride <= 1 {
		return
	}
	w.Header().Set(api.HeaderLane, strconv.Itoa(lane))
	w.Header().Set(api.HeaderLaneStride, strconv.Itoa(stride))
}

// failCtx maps a context error to its HTTP status: an expired deadline is
// 504; a client that went away gets a best-effort 499 (nobody reads it).
func (s *Server) failCtx(w http.ResponseWriter, err error, d time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.timedOut.Add(1)
		if d > 0 {
			api.WriteError(w, http.StatusGatewayTimeout, "deadline of %s exceeded", d)
		} else {
			api.WriteError(w, http.StatusGatewayTimeout, "deadline exceeded")
		}
		return
	}
	w.WriteHeader(499) // client closed request (nginx convention)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Healthz{Status: "draining"})
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Healthz{Status: "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.StatzSnapshot())
}

// StatzSnapshot assembles the /v1/statz counters. The daemon also calls
// it on shutdown to flush the final state to the log, so post-mortem
// counters survive the process.
func (s *Server) StatzSnapshot() api.Statz {
	count, used, hits, misses, evictions := s.sessions.snapshot()
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	st := api.Statz{
		Served:           s.stats.served.Load(),
		Rejected:         s.stats.rejected.Load(),
		TimedOut:         s.stats.timedOut.Load(),
		Failed:           s.stats.failed.Load(),
		Panics:           s.stats.panics.Load(),
		IdemReplays:      s.stats.idemReplays.Load(),
		QueueExpired:     s.stats.queueExpired.Load(),
		Batches:          s.stats.batches.Load(),
		BatchedJobs:      s.stats.batchedJobs.Load(),
		SoloFallbacks:    s.stats.soloFallbacks.Load(),
		BatchLanes:       s.maxLanes,
		BatchStride:      s.stride,
		FaultsFired:      fault.TotalFired(),
		QueueDepth:       len(s.sched.queue),
		QueueCap:         s.cfg.QueueDepth,
		Workers:          s.cfg.Workers,
		Draining:         draining,
		Sessions:         count,
		SessionBytes:     used,
		SessionBudget:    s.cfg.SessionBudget,
		SessionHits:      hits,
		SessionMisses:    misses,
		SessionEvictions: evictions,
		LatencyMsP50:     s.lat.Quantile(0.50),
		LatencyMsP90:     s.lat.Quantile(0.90),
		LatencyMsP99:     s.lat.Quantile(0.99),
	}
	st.Restarts = s.restarts
	st.SessionsRecovered = s.stats.sessionsRecovered.Load()
	st.JobsResumed = s.stats.jobsResumed.Load()
	st.PendingRecovery = s.recovering.Load()
	st.ReplicaSessions = s.stats.replicaSessions.Load()
	st.ReplicaResults = s.stats.replicaResults.Load()
	st.ReplicaShipErrs = s.stats.replicaShipErrs.Load()
	if s.dur != nil {
		st.CheckpointBytes = s.dur.ckptWritten.Load()
		st.StoreBytes = s.dur.diskBytes()
		st.StoreErrs = s.dur.storeErrs.Load()
	}
	st.ProgramTable = api.TableStatz(s.prog.TableStats())
	if s.boot != nil {
		st.BootstrapTable = api.TableStatz(s.boot.TableStats())
	}
	return st
}
