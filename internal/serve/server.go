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
	"context"
	"encoding/json"
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
	// SessionBudget caps resident evaluation-key bytes (default 256 MiB).
	SessionBudget int64
	// MaxUploadBytes caps one key-bundle upload (default SessionBudget).
	MaxUploadBytes int64
	// MaxCipherBytes caps one request ciphertext (default 64 MiB).
	MaxCipherBytes int64
	// DefaultDeadline applies when a request carries no deadline header
	// (default 60s); MaxDeadline clamps client-supplied values
	// (default 10m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// IdemEntries bounds the idempotency result cache (default 256
	// retained successes; in-flight executions are uncounted).
	IdemEntries int

	// BatchMax > 1 enables cross-request slot batching: concurrent
	// inference requests on the same session that arrive within
	// BatchWindow are packed into spare slot lanes of one shared
	// ciphertext and evaluated together, up to min(BatchMax, stride)
	// jobs per evaluation, where stride = slots/VecLen. The program is
	// lane-transformed at startup (every rotation scaled by the stride,
	// every constant replicated per lane), so clients must encode inputs
	// strided per the spec's BatchStride and extract their lane from
	// replies. 0 or 1 disables batching and serves exactly the solo
	// path. BatchWindow defaults to 20ms when batching is on: latency
	// traded per request for up-to-stride-fold throughput.
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
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = c.SessionBudget
	}
	if c.MaxCipherBytes <= 0 {
		c.MaxCipherBytes = 64 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.IdemEntries <= 0 {
		c.IdemEntries = 256
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
	// window in front of the queue (nil when batching is off).
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
	// queue closes; flush callbacks check it under mu so no send can
	// race the close.
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
		idem:      newIdemCache(cfg.IdemEntries),
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
	s.sched = newScheduler(cfg.QueueDepth, cfg.Workers, s.executeGroup,
		func(*job) { s.stats.queueExpired.Add(1) })
	if maxLanes > 1 {
		s.coal = batch.NewCoalescer[*job](cfg.BatchWindow, maxLanes, s.flushBatch)
	}

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
	dur, st, err := openDurable(s.cfg.DataDir, s.cfg.DiskBudget, s.cfg.IdemEntries)
	if err != nil {
		return err
	}
	s.dur = dur
	s.restarts = dur.bumpRestarts()

	// Journaled successes become pre-completed idempotency entries:
	// post-restart retries replay them bit for bit. Oldest first, so the
	// LRU retains the most recent IdemEntries of them.
	done := st.done
	if len(done) > s.cfg.IdemEntries {
		done = done[len(done)-s.cfg.IdemEntries:]
	}
	for _, key := range done {
		c := st.completed[key]
		s.idem.restore(key, c.body, c.lane, c.stride)
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
func (s *Server) recoverJob(key string, a acceptRec, entry *idemEntry) {
	defer s.recovering.Add(-1)
	trace := obs.NewTraceID()
	log := s.log.With(slog.String("trace", trace), slog.String("idem_key", key))
	if err := fault.Inject(fault.ServeRecoverErr); err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
	budget := s.cfg.MaxDeadline
	if !a.deadline.IsZero() {
		rem := time.Until(a.deadline)
		if rem <= 0 {
			log.Info("recover.expired", slog.Time("deadline", a.deadline))
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
	if err := ct.UnmarshalBinary(a.input); err != nil {
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
	j := &job{ctx: ctx, sess: sess, ct: ct, done: make(chan jobResult, 1),
		enqueued: time.Now(), idemKey: key, resume: resume}
	if !s.enqueueBlocking(j) {
		s.completeIdem(entry, false, nil, 0, 0)
		return
	}
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

// enqueueBlocking submits a recovered job as a singleton group, waiting
// for queue space rather than bouncing 429 (nobody is holding an HTTP
// connection open for it). Returns false if the server is draining.
// Recovered jobs never coalesce: their journaled input is a complete
// ciphertext and their checkpoint (if any) is mid-execution state that
// only makes sense solo.
func (s *Server) enqueueBlocking(j *job) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false
	}
	s.sched.queue <- &batchGroup{jobs: []*job{j}}
	return true
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
		// Order matters: new arrivals are already refused (draining),
		// so sweep the coalescer's open windows into the queue first
		// (blocking — accepted work must run), then flip stopped so no
		// flush can send again, then close the queue.
		if s.coal != nil {
			s.coal.CloseAndFlush()
		}
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

// tryEnqueue submits a singleton group unless the server drains or the
// queue is full. The read lock pairs with Drain's write lock so no send
// can race the queue close.
func (s *Server) tryEnqueue(j *job) (ok, draining bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false, true
	}
	select {
	case s.sched.queue <- &batchGroup{jobs: []*job{j}}:
		return true, false
	default:
		return false, false
	}
}

// Sentinel results for jobs a batch flush could not hand to the queue;
// finish maps them onto the same 429/503 responses the solo admission
// path produces.
var (
	errQueueFull    = errors.New("serve: queue full at batch flush")
	errDrainingDrop = errors.New("serve: server draining")
)

// flushBatch is the coalescer's flush callback: hand one closed window
// to the worker queue as a group. A timer- or max-triggered flush
// load-sheds on a full queue exactly like the solo path (each member
// answers 429); the final drain-time sweep blocks instead, because
// every member was already accepted and must be served before the
// workers stop. Holding the read lock across the send pairs with
// Drain's write-locked stopped flip, so no send races the queue close.
func (s *Server) flushBatch(jobs []*job, final bool) {
	if len(jobs) == 1 {
		s.stats.soloFallbacks.Add(1)
	}
	g := &batchGroup{jobs: jobs}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.stopped {
		for _, j := range jobs {
			j.done <- jobResult{err: errDrainingDrop}
		}
		return
	}
	if final {
		s.sched.queue <- g
		return
	}
	select {
	case s.sched.queue <- g:
	default:
		for _, j := range jobs {
			j.done <- jobResult{err: errQueueFull}
		}
	}
}

// executeGroup is the worker entry point: singleton groups run the solo
// path (which keeps checkpointing for journaled jobs), multi-job groups
// run the fused batched evaluation. Either way every job's done channel
// is settled here.
func (s *Server) executeGroup(g *batchGroup) {
	if len(g.jobs) == 1 {
		j := g.jobs[0]
		j.done <- s.execute(j)
		return
	}
	s.executeBatch(g)
}

// execute runs one job on a fresh per-request machine around the shared
// read-only parts; it is called from worker goroutines.
//
// It is also the serve-side panic isolation boundary: vm.RunCtx already
// recovers panics below itself, so the recover here catches everything
// outside it — test hooks, machine construction, the armed
// serve.worker.panic injection point — and converts it to the same typed
// failure. Either way the worker goroutine survives, the pool keeps its
// size, and the now-suspect pooled scratch is discarded rather than
// recycled.
func (s *Server) execute(j *job) (res jobResult) {
	defer func() {
		if rec := recover(); rec != nil {
			s.params.DiscardScratch()
			res = jobResult{err: fault.FromPanic("serve.worker", rec)}
		}
		var re *fault.RuntimeError
		if res.err != nil && errors.As(res.err, &re) && re.Code == fault.CodeEvalPanic {
			s.stats.panics.Add(1)
		}
	}()
	if s.beforeExec != nil {
		s.beforeExec(j)
	}
	wait := time.Since(j.enqueued)
	s.queueWait.Observe(wait)
	log := obs.Logger(j.ctx, s.log)
	log.Info("infer.exec", slog.Duration("queue_wait", wait))
	fault.InjectPanic(fault.ServeWorkerPanic)
	m := vm.NewMachine(s.params, j.sess.keys, s.boot, s.enc)
	m.StepDelay = s.cfg.InstrDelay
	m.Prof = obs.NewRunProfile()
	if s.dur != nil && j.idemKey != "" {
		key := j.idemKey
		m.Ckpt = &vm.CheckpointPolicy{
			EveryN: s.cfg.CheckpointEveryN,
			Every:  s.cfg.CheckpointEvery,
			Sink: func(snap []byte) error {
				log.Debug("infer.checkpoint", slog.Int("bytes", len(snap)))
				return s.dur.writeCheckpoint(key, snap)
			},
		}
	}
	in := j.ct
	if j.resume != nil {
		// A bad checkpoint is not fatal: fall back to re-executing the
		// journaled input from instruction 0.
		if err := m.Restore(s.module, j.resume); err == nil {
			in = nil
			s.stats.jobsResumed.Add(1)
		}
	}
	evalStart := time.Now()
	out, err := m.RunCtx(j.ctx, s.module, in)
	eval := time.Since(evalStart)
	s.evalHist.Observe(eval)
	s.prof.Merge(m.Prof, eval)
	if err != nil {
		log.Warn("infer.eval", slog.Duration("eval", eval), slog.String("err", err.Error()))
	} else {
		log.Info("infer.eval", slog.Duration("eval", eval),
			slog.Uint64("instrs", m.Prof.Steps()))
	}
	// Under a batched server even a solo run executes the
	// lane-transformed module, so the caller's result lives in lane 0 of
	// a strided layout and the reply must say so.
	return jobResult{ct: out, lane: 0, stride: s.stride, err: err}
}

// executeBatch runs a coalesced multi-job group as one fused
// evaluation: each member's lane-0 ciphertext is rotated into its own
// lane (Rotate by −b costs one key switch, no level), the rotated
// inputs are summed into a single packed ciphertext — lanes are
// disjoint by construction, so addition is exact — and the transformed
// module runs once. Every surviving member receives the same output
// ciphertext tagged with its lane.
//
// It is the batch-wide panic and failure boundary the batch.flush.panic
// injection point exercises: a panic or evaluation error fails every
// job in THIS group (each answers 500) and nothing outside it — the
// worker survives, other groups are untouched.
func (s *Server) executeBatch(g *batchGroup) {
	jobs := g.jobs
	fail := func(err error) {
		var re *fault.RuntimeError
		if errors.As(err, &re) && re.Code == fault.CodeEvalPanic {
			s.stats.panics.Add(1)
		}
		for _, j := range jobs {
			j.done <- jobResult{err: err}
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.params.DiscardScratch()
			fail(fault.FromPanic("serve.worker", rec))
		}
	}()

	// A member whose input is not at the compiled level/scale would
	// poison the whole pack; fail it alone before touching the others.
	live := jobs[:0]
	for _, j := range jobs {
		if j.ct.Level() != s.spec.InputLevel || !scaleClose(j.ct.Scale, s.spec.InputScale) {
			j.done <- jobResult{err: fmt.Errorf(
				"serve: batched input at level %d scale %g, compiled for level %d scale %g",
				j.ct.Level(), j.ct.Scale, s.spec.InputLevel, s.spec.InputScale)}
			continue
		}
		live = append(live, j)
	}
	jobs = live
	switch len(jobs) {
	case 0:
		return
	case 1:
		jobs[0].done <- s.execute(jobs[0])
		return
	}

	s.stats.batches.Add(1)
	s.stats.batchedJobs.Add(uint64(len(jobs)))

	// The fused run serves every member, so it gets the most patient
	// member's deadline; a member whose own deadline lapses mid-flight
	// times out at its handler without dooming its lane-mates.
	trace := obs.NewTraceID()
	deadline := time.Time{}
	for _, j := range jobs {
		if d, ok := j.ctx.Deadline(); ok && d.After(deadline) {
			deadline = d
		}
		if s.beforeExec != nil {
			s.beforeExec(j)
		}
		wait := time.Since(j.enqueued)
		s.queueWait.Observe(wait)
	}
	ctx := obs.WithTrace(context.Background(), trace)
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	log := obs.Logger(ctx, s.log)
	log.Info("batch.exec", slog.Int("jobs", len(jobs)), slog.Int("stride", s.stride))

	fault.InjectPanic(fault.BatchFlushPanic)
	m := vm.NewMachine(s.params, jobs[0].sess.keys, s.boot, s.enc)
	m.StepDelay = s.cfg.InstrDelay
	m.Prof = obs.NewRunProfile()

	in := jobs[0].ct
	for b := 1; b < len(jobs); b++ {
		rot, err := m.Eval.Rotate(jobs[b].ct, -b)
		if err == nil {
			in, err = m.Eval.Add(in, rot)
		}
		if err != nil {
			fail(fmt.Errorf("serve: packing lane %d: %w", b, err))
			return
		}
	}

	evalStart := time.Now()
	out, err := m.RunCtx(ctx, s.module, in)
	eval := time.Since(evalStart)
	s.evalHist.Observe(eval)
	s.prof.Merge(m.Prof, eval)
	if err != nil {
		log.Warn("batch.eval", slog.Duration("eval", eval), slog.String("err", err.Error()))
		fail(err)
		return
	}
	log.Info("batch.eval", slog.Duration("eval", eval),
		slog.Uint64("instrs", m.Prof.Steps()))
	for b, j := range jobs {
		j.done <- jobResult{ct: out, lane: b, stride: s.stride}
	}
}

// scaleClose mirrors the vm's scale tolerance (1e-6 relative).
func scaleClose(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*b
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorReply{Error: fmt.Sprintf(format, args...)})
}

// setRetryAfter stamps the configured back-off hint on a response about
// to carry a retryable rejection (429 queue-full, 503 draining or
// recovering): every load-shed answer tells the client when to come
// back, so routers and retry loops back off instead of hammering.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
}

// writeErrCode writes a failure with a stable machine-readable code from
// the fault taxonomy alongside the human-readable message.
func writeErrCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorReply{Error: fmt.Sprintf(format, args...), Code: code})
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
	writeJSON(w, http.StatusOK, s.spec)
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
	body, err := readBody(w, r, s.cfg.MaxUploadBytes)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "key upload: %v", err)
		return
	}
	keys := &ckks.EvaluationKeySet{}
	if err := keys.UnmarshalBinary(body); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding key bundle: %v", err)
		return
	}
	if err := s.validateKeys(keys); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A cluster router pre-assigns the session id (X-ACE-Session on the
	// registration) so the id's hash placement is decided before the id
	// exists anywhere: the router mints it, picks this shard by ring
	// lookup, and every process can later re-derive primary and replica
	// from the id alone. Anything but the exact newSessionID shape is
	// rejected — ids become file names and ring keys.
	var sess *session
	if want := r.Header.Get(api.HeaderSession); want != "" {
		if !validSessionID(want) {
			writeErr(w, http.StatusBadRequest, "pre-assigned session id must be 32 lowercase hex characters")
			return
		}
		sess, err = s.sessions.putWithID(want, keys, int64(len(body)))
	} else {
		sess, err = s.sessions.put(keys, int64(len(body)))
	}
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
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
		if err := s.repl.ShipSession(sess.id, body); err != nil {
			s.stats.replicaShipErrs.Add(1)
			s.log.Warn("replica.ship.session", slog.String("session", sess.id),
				slog.String("err", err.Error()))
		}
	}
	writeJSON(w, http.StatusCreated, api.SessionReply{
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
		writeErr(w, http.StatusNotFound, "unknown session")
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
		writeErr(w, http.StatusBadRequest, "missing %s header", api.HeaderSession)
		return
	}
	idemKey := r.Header.Get(api.HeaderIdemKey)
	if len(idemKey) > maxIdemKeyBytes {
		// The key becomes a journal record field behind a uint16 length —
		// an unbounded client string is a framing hazard, not a retry token.
		writeErr(w, http.StatusBadRequest, "%s of %d bytes exceeds the %d-byte limit",
			api.HeaderIdemKey, len(idemKey), maxIdemKeyBytes)
		return
	}
	d, err := s.deadline(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := readBody(w, r, s.cfg.MaxCipherBytes)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "ciphertext: %v", err)
		return
	}
	ct := &ckks.Ciphertext{}
	if err := ct.UnmarshalBinary(body); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding ciphertext: %v", err)
		return
	}
	sess, ok := s.lookupSession(id)
	if !ok {
		// Stamp the adopted membership epoch: a 404 here after a topology
		// change usually means the client's endpoint list is stale, and
		// the epoch tells it to re-fetch /v1/cluster/membership.
		s.stampEpoch(w)
		writeErr(w, http.StatusNotFound, "unknown session %s (register keys first)", id)
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

	j := &job{ctx: ctx, sess: sess, ct: ct, done: make(chan jobResult, 1), enqueued: time.Now(), idemKey: idemFull}
	if s.coal != nil {
		// Batched admission: the job waits in the session's coalescing
		// window; the flush callback performs the actual queue send and
		// reports full-queue load shedding through the job's done
		// channel (finish maps it to the same 429).
		if !s.coal.Add(sess.id, j) {
			s.completeIdem(entry, false, nil, 0, 0)
			s.setRetryAfter(w)
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		log.Info("infer.coalesce", slog.String("session", sess.id))
	} else {
		ok, draining := s.tryEnqueue(j)
		if draining {
			s.completeIdem(entry, false, nil, 0, 0)
			s.setRetryAfter(w)
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		if !ok {
			s.completeIdem(entry, false, nil, 0, 0)
			s.stats.rejected.Add(1)
			log.Info("infer.reject", slog.Int("queue_depth", s.cfg.QueueDepth))
			s.setRetryAfter(w)
			writeErr(w, http.StatusTooManyRequests, "queue full (%d deep)", s.cfg.QueueDepth)
			return
		}
		log.Info("infer.enqueue", slog.Int("queue_depth", len(s.sched.queue)))
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
		s.setRetryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, "previous attempt under this idempotency key failed; retry")
		return
	}
	s.stats.idemReplays.Add(1)
	w.Header().Set("Content-Type", api.ContentTypeBinary)
	w.Header().Set(api.HeaderIdemReplayed, "1")
	setLaneHeaders(w, entry.lane, entry.stride)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(entry.body)
}

// completeIdem finalizes an owned idempotency entry; nil entries (no key
// on the request) are ignored. With a disk tier attached the outcome is
// journaled first — success persists the reply bytes for post-restart
// replay, failure (or an abandoned attempt) forgets the job so a retry
// re-executes rather than resuming a doomed checkpoint. A batched
// success additionally records the lane the caller's slots live in, so
// a replay — in-memory or post-restart — carries the same lane headers
// as the original response.
func (s *Server) completeIdem(entry *idemEntry, ok bool, body []byte, lane, stride int) {
	if entry == nil {
		return
	}
	if s.dur != nil {
		if ok {
			s.dur.complete(entry.key, body, lane, stride)
		} else {
			s.dur.forget(entry.key)
		}
	}
	if s.repl != nil && ok {
		// Asynchronous: the settlement rides the shipper's ordered queue,
		// off the reply path, replicating the exact reply bytes so a
		// failover retry replays bit-identically. Failures and abandoned
		// attempts ship nothing: no completion was ever replicated under
		// this key, so there is nothing to withdraw — and a forget crossing
		// another shard's legitimate completion (a hedged duplicate losing
		// the race) would destroy a settled result.
		s.repl.ShipComplete(entry.key, lane, stride, body)
	}
	s.idem.complete(entry, ok, body, lane, stride)
}

// finish writes a completed job's response. Evaluation failures carry a
// stable code from the fault taxonomy so clients and dashboards can
// distinguish a recovered worker panic from an ordinary evaluation
// error without parsing message text.
func (s *Server) finish(w http.ResponseWriter, j *job, entry *idemEntry, res jobResult) {
	log := obs.Logger(j.ctx, s.log)
	if res.err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
			log.Info("infer.reply", slog.String("outcome", "timeout"))
			s.failCtx(w, res.err, 0)
			return
		}
		if errors.Is(res.err, errQueueFull) {
			s.stats.rejected.Add(1)
			log.Info("infer.reject", slog.Int("queue_depth", s.cfg.QueueDepth))
			s.setRetryAfter(w)
			writeErr(w, http.StatusTooManyRequests, "queue full (%d deep)", s.cfg.QueueDepth)
			return
		}
		if errors.Is(res.err, errDrainingDrop) {
			s.setRetryAfter(w)
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.stats.failed.Add(1)
		re := fault.AsRuntime(fault.CodeEvalError, "serve.infer", res.err)
		log.Warn("infer.reply", slog.String("outcome", "error"), slog.String("code", re.Code))
		writeErrCode(w, http.StatusInternalServerError, re.Code, "evaluation failed: %v", res.err)
		return
	}
	out, err := res.ct.MarshalBinary()
	if err != nil {
		s.completeIdem(entry, false, nil, 0, 0)
		s.stats.failed.Add(1)
		writeErrCode(w, http.StatusInternalServerError, fault.CodeEvalError, "encoding result: %v", err)
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
			writeErr(w, http.StatusGatewayTimeout, "deadline of %s exceeded", d)
		} else {
			writeErr(w, http.StatusGatewayTimeout, "deadline exceeded")
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
		writeJSON(w, http.StatusServiceUnavailable, api.Healthz{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, api.Healthz{Status: "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatzSnapshot())
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
