package serve

import "sync/atomic"

// counters are the monotone request counters behind /v1/statz.
type counters struct {
	served       atomic.Uint64 // completed with a 200
	rejected     atomic.Uint64 // 429: queue full
	timedOut     atomic.Uint64 // 504: deadline expired while queued or running
	failed       atomic.Uint64 // 5xx: evaluation error
	panics       atomic.Uint64 // evaluations that died in a recovered panic
	idemReplays  atomic.Uint64 // 200s served from the idempotency cache
	queueExpired atomic.Uint64 // jobs dropped by workers: deadline passed while queued

	batches       atomic.Uint64 // multi-job fused evaluations
	batchedJobs   atomic.Uint64 // jobs carried by those fused evaluations
	soloFallbacks atomic.Uint64 // coalesced windows that closed with one job

	sessionsRecovered atomic.Uint64 // key bundles reloaded from disk
	jobsResumed       atomic.Uint64 // journaled jobs resumed from a checkpoint

	replicaSessions atomic.Uint64 // replicated key bundles applied on this shard
	replicaResults  atomic.Uint64 // replicated journal completions applied here
	replicaShipErrs atomic.Uint64 // replication shipments this shard failed to send
}
