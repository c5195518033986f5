GO ?= go

# gotest FLAGS,SELECTOR,PATTERN,PACKAGE runs `go test FLAGS SELECTOR
# 'PATTERN' PACKAGE` for one -run, -fuzz or -bench selector, after
# `go test -list` (with FLAGS' -tags) has found a test PATTERN names in
# PACKAGE. A renamed test would otherwise leave its suite passing on "no
# tests to run".
define gotest
	@$(GO) test $(filter -tags=%,$(1)) -list '$(3)' $(4) | grep -q '^\(Test\|Fuzz\|Benchmark\)' || { echo "$(4): $(2) '$(3)' selects nothing" >&2; exit 1; }
	$(GO) test $(1) $(2) '$(3)' $(4)
endef

.PHONY: build test verify vet race bootstrap-large bench bench-check bench-batch serve-smoke obs-smoke chaos durability cluster-chaos cluster-membership-chaos autotune

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis plus a race-instrumented build of every package: vet
# catches the misuse classes Go's compiler lets through, and the -race
# build surfaces code that cannot even compile under instrumentation
# before a racy test run would.
vet:
	$(GO) vet ./...
	$(GO) build -race ./...

# Race-test the concurrency-bearing packages: the ring engine, the CKKS
# evaluator and the bootstrapper fan limb work out across the internal/par
# worker pool, and the serving layer runs a worker pool of evaluators over
# a shared session cache. The compiler packages run too: a plan search
# and concurrent compiles must share none of the per-lowering scratch
# arrays and value tables (core's TestConcurrentCompilesMatchSerial).
# ACE_WORKERS=8 forces parallel scheduling even on single-core CI
# machines. The packages that nest par.For run again at
# ACE_WORKERS=2: the worker count at which a nested loop's helper used
# to queue behind the only pool worker and deadlock. Serve's one
# executor (and the batch lanes it packs) nests par the same way.
# vm's TestKernelCallsMatchExpansion runs at both counts: the fused-kernel
# calls of an opcode, a bootstrap and a gemv and ResNet-8 inference must
# equal the expansion's (kswork) whatever the worker count.
# -count=1: par reads ACE_WORKERS in init, which the test cache does not
# key on, so a cached result may come from another worker count.
race:
	ACE_WORKERS=8 $(GO) test -count=1 -race ./internal/ring/... ./internal/ckks/... ./internal/bootstrap/... ./internal/par/... ./internal/nt/... ./internal/polyir/... ./internal/serve/... ./internal/fheclient/... ./internal/vm/... ./internal/obs/... ./internal/batch/... ./internal/cluster/... ./internal/ir/... ./internal/nnir/... ./internal/vecir/... ./internal/sihe/... ./internal/ckksir/... ./internal/core/...
	ACE_WORKERS=2 $(GO) test -count=1 -race ./internal/ring/... ./internal/ckks/... ./internal/bootstrap/... ./internal/par/... ./internal/vm/... ./internal/serve/... ./internal/batch/...

# A real encrypted bootstrap at logN 13, in the stage counts the compiler
# picks there: half a gigabyte of rotation keys, so it sits behind the
# verify build tag instead of in every `go test ./...` (logN 12 is).
bootstrap-large:
	$(call gotest,-count=1 -tags=verify -v,-run,TestBootstrapAtLogN13,./internal/bootstrap/)

# Loopback smoke test of the serving layer: start an in-process daemon,
# register a session through the real client, infer, decrypt, compare to
# the cleartext reference.
serve-smoke:
	$(call gotest,-count=1 -v,-run,TestLoopbackInference,./internal/serve/)

# Observability smoke test against the real binary: boot aced, run one
# traced inference through the client library, strict-parse /metrics
# against the exposition grammar, check /v1/profilez accounts for the
# evaluation time, and verify one trace id strings the daemon's log
# events together across the request's whole life.
obs-smoke:
	$(call gotest,-count=1 -v,-run,TestObsSmokeAced|TestMetricsExposition|TestProfilezTracksEval,./internal/serve/)

# Chaos suite: deterministic fault injection (internal/fault) drives the
# daemon through worker panics, dropped responses and queue-full storms
# under the race detector. Seeds are fixed inside the tests, so failures
# replay exactly; -count=1 defeats the test cache because fault points
# are process-global state.
chaos:
	$(call gotest,-count=1 -race -v,-run,Chaos,./internal/serve/)
	$(GO) test -count=1 -race ./internal/fault/
	$(GO) test -count=1 -race ./internal/batch/

# Durability suite: the crash-restart e2e kills a real aced daemon with
# SIGKILL mid-inference and proves the restarted one finishes the job
# bit-identically from its checkpoint; the record tests hold the journal
# and the replication stream to one codec (one result is the same bytes
# in both journals and on the wire; old layouts are refused, never
# reinterpreted); the VM resumes from every checkpoint of a run whose
# linear layer is one BSGS kernel and gets the uninterrupted run's bytes;
# the fuzz smokes feed corrupt record, journal, snapshot and compiled-
# program bytes to the decode/replay/restore/load paths. All raced.
durability:
	$(call gotest,-count=1 -race -v -timeout 600s,-run,TestCrashRestart|TestRestart|TestRecovery|TestRecord,./internal/serve/)
	$(call gotest,-count=1 -race -v,-run,TestSnapshotResumeBitIdentical,./internal/vm/)
	$(call gotest,-count=1 -race -run '^$$' -fuzztime 10s,-fuzz,FuzzRecord,./internal/serve/)
	$(call gotest,-count=1 -race -run '^$$' -fuzztime 10s,-fuzz,FuzzStoreReplay,./internal/store/)
	$(call gotest,-count=1 -race -run '^$$' -fuzztime 10s,-fuzz,FuzzSnapshotRestore,./internal/vm/)
	$(call gotest,-count=1 -race -run '^$$' -fuzztime 10s,-fuzz,FuzzResultUnmarshal,./internal/ckksir/)

# Cluster chaos suite: the sharded-serving proofs, all raced. The
# subprocess e2e boots three real aced shards plus an acerouter,
# SIGKILLs the session's primary shard mid-inference, and requires the
# failover answer — served by the replica from the replicated key
# bundle — to be bit-identical with zero client re-registration. The
# in-process tests drive the same ring/shipper/router machinery through
# the router.forward.err and replica.ship.torn injection points.
cluster-chaos:
	$(call gotest,-count=1 -race -v -timeout 600s,-run,TestChaos|TestRouter|TestShipper,./internal/cluster/)

# Live-membership chaos suite, all raced. Subprocess e2e against the
# real binaries: a cold shard joins a loaded cluster through the
# router's /v1/cluster/join and serves traffic with zero client
# re-registration; a drained shard hands off every session and journal
# entry, answers its in-flight requests bit-identically, then exits
# zero on its own; a straggler shard (-instr-delay) is hedged around so
# its p99 stays under 2x the healthy baseline with ace_hedge_wins > 0.
# The in-process tests cover the epoch state machine, the membership
# wire fuzzing seeds, the handoff readyz gate and the client's
# membership refetch.
cluster-membership-chaos:
	$(call gotest,-count=1 -race -v -timeout 600s,-run,TestChaosMembership|TestMembership|TestLatencyEstimator,./internal/cluster/)
	$(call gotest,-count=1 -race -v,-run,TestRefreshMembership|TestAPIErrorCarriesEpoch,./internal/fheclient/)
	$(call gotest,-count=1 -race -run '^$$' -fuzztime 10s,-fuzz,FuzzMembershipWire,./internal/cluster/)

# Calibrated-cost-model autotune: microbenchmark the runtime, enumerate
# compilation plans (bootstrap placement) for the reduced ResNet-20
# under the calibrated model, then run the hand-picked naive-conv
# baseline and the chosen plan for real. Fails if the chosen plan does
# not beat the baseline in measured wall-clock or if any per-category
# prediction (Conv / Bootstrap / ReLU) strays past 2x of measurement.
# Writes BENCH_autotune.json.
autotune:
	$(GO) run ./cmd/acebench -autotune

# bench/ is its own module, so `go build ./...` and `go vet ./...` above
# never compile it: an internal signature change could break the
# repository's benchmark without any other target noticing.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify:
	$(MAKE) vet
	$(MAKE) bench-check
	$(MAKE) race
	$(MAKE) bootstrap-large
	$(MAKE) chaos
	$(MAKE) durability
	$(MAKE) cluster-chaos
	$(MAKE) cluster-membership-chaos
	$(MAKE) obs-smoke
	$(MAKE) autotune
	$(GO) test ./...

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# workloads, end-to-end metrics untraced; BENCH_ARGS passes flags through,
# e.g. BENCH_ARGS='--workload infer_gemv --trace 1'.
bench:
	bash bench/run.sh $(BENCH_ARGS)

# Cross-request batching benchmark (BENCH_batch.json records reference
# numbers): boot a real aced serving the 64x10 linear demo at logN 12
# (stride 32), drive 8 concurrent clients through acebench -load, batched
# vs unbatched, best of 3 runs per mode. One evaluation takes about 15 ms
# on one worker (66 unbatched inferences/s on a 2-vCPU VM), so the six
# 60 s phases take about 8 minutes. MODEL=builtin:resnet20 serves the
# reduced ResNet-20 instead, minutes per inference. See
# scripts/bench_batch.sh for tunables.
bench-batch:
	bash scripts/bench_batch.sh
