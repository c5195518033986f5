package serve

import (
	"bytes"
	"net/http"
	"strconv"

	"antace/internal/fault"
	"antace/internal/obs"
	"antace/internal/serve/api"
)

// contentTypeExposition is the media type of the Prometheus text format
// (version 0.0.4), sent on /metrics responses.
const contentTypeExposition = "text/plain; version=0.0.4; charset=utf-8"

// handleProfilez serves the aggregated per-opcode FHE profile: what the
// paper's Figure 6 measures offline, computed continuously over live
// traffic. Counts, total/mean/max times and duration histograms per
// ckks opcode, plus the most recent run's level/scale trajectory.
func (s *Server) handleProfilez(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.prof.Snapshot())
}

// handleMetrics serves every statz counter, the request-level
// histograms and the per-opcode profile in Prometheus text exposition
// format. The page is rendered to a buffer first so a formatting error
// can never leave a scraper a half-written page.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := obs.NewExposition()
	st := s.StatzSnapshot()

	e.Family("ace_requests_served_total", "Inference requests completed with a 200.", obs.Counter).Add(float64(st.Served))
	e.Family("ace_requests_rejected_total", "Inference requests bounced 429 on a full queue.", obs.Counter).Add(float64(st.Rejected))
	e.Family("ace_requests_timed_out_total", "Inference requests that exceeded their deadline.", obs.Counter).Add(float64(st.TimedOut))
	e.Family("ace_requests_failed_total", "Inference requests that failed with a 5xx.", obs.Counter).Add(float64(st.Failed))
	e.Family("ace_eval_panics_total", "Evaluations that died in a recovered panic.", obs.Counter).Add(float64(st.Panics))
	e.Family("ace_idem_replays_total", "Responses served from the idempotency cache.", obs.Counter).Add(float64(st.IdemReplays))
	e.Family("ace_queue_expired_total", "Jobs dropped by workers because their deadline passed while queued.", obs.Counter).Add(float64(st.QueueExpired))

	e.Family("ace_batches_total", "Multi-request fused evaluations over shared ciphertexts.", obs.Counter).Add(float64(st.Batches))
	e.Family("ace_batched_jobs_total", "Requests served inside fused evaluations.", obs.Counter).Add(float64(st.BatchedJobs))
	e.Family("ace_batch_solo_fallbacks_total", "Coalescing windows that closed with a single request.", obs.Counter).Add(float64(st.SoloFallbacks))
	e.Family("ace_batch_lanes", "Maximum requests one evaluation carries (1 = batching off).", obs.Gauge).Add(float64(st.BatchLanes))
	e.Family("ace_batch_stride", "Slot-lane stride of the served program (1 = untransformed).", obs.Gauge).Add(float64(st.BatchStride))

	ff := e.Family("ace_fault_fired_total", "Armed fault-injection points fired, per point.", obs.Counter)
	for _, p := range fault.Snapshot() {
		ff.Add(float64(p.Fired), obs.Label{Name: "point", Value: p.Point})
	}

	e.Family("ace_queue_depth", "Jobs currently waiting in the queue.", obs.Gauge).Add(float64(st.QueueDepth))
	e.Family("ace_queue_capacity", "Configured queue bound.", obs.Gauge).Add(float64(st.QueueCap))
	e.Family("ace_workers", "Evaluation worker pool size.", obs.Gauge).Add(float64(st.Workers))
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	e.Family("ace_draining", "1 while the server drains, 0 otherwise.", obs.Gauge).Add(draining)

	e.Family("ace_sessions", "Key bundles resident in RAM.", obs.Gauge).Add(float64(st.Sessions))
	e.Family("ace_session_bytes", "Evaluation-key bytes resident in RAM.", obs.Gauge).Add(float64(st.SessionBytes))
	e.Family("ace_session_budget_bytes", "Configured RAM budget for key bundles.", obs.Gauge).Add(float64(st.SessionBudget))
	e.Family("ace_session_hits_total", "Session cache hits.", obs.Counter).Add(float64(st.SessionHits))
	e.Family("ace_session_misses_total", "Session cache misses.", obs.Counter).Add(float64(st.SessionMisses))
	e.Family("ace_session_evictions_total", "Sessions evicted under the RAM budget.", obs.Counter).Add(float64(st.SessionEvictions))

	lq := e.Family("ace_latency_ms", "Request latency quantiles over the rolling window, in milliseconds.", obs.Gauge)
	lq.Add(st.LatencyMsP50, obs.Label{Name: "quantile", Value: "0.5"})
	lq.Add(st.LatencyMsP90, obs.Label{Name: "quantile", Value: "0.9"})
	lq.Add(st.LatencyMsP99, obs.Label{Name: "quantile", Value: "0.99"})

	qw := s.queueWait.Snapshot()
	e.Family("ace_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", obs.HistogramT).
		AddHistogram(nil, qw.Bounds, qw.Counts, qw.SumSeconds)
	ev := s.evalHist.Snapshot()
	e.Family("ace_eval_seconds", "Wall-clock homomorphic evaluation time per job.", obs.HistogramT).
		AddHistogram(nil, ev.Bounds, ev.Counts, ev.SumSeconds)

	// Per-opcode instruction costs (the live Figure 6): one histogram
	// series per ckks opcode, bucket bounds shared with the request
	// histograms.
	prof := s.prof.Snapshot()
	if len(prof.Ops) > 0 {
		of := e.Family("ace_op_seconds", "Per-instruction execution time by ckks opcode.", obs.HistogramT)
		for _, op := range prof.Ops {
			of.AddHistogram([]obs.Label{{Name: "op", Value: op.Op}},
				obs.DurationBuckets, op.Buckets, op.TotalMs/1e3)
		}
	}
	e.Family("ace_profiled_runs_total", "Evaluations folded into the op profile.", obs.Counter).Add(float64(prof.Runs))

	e.Family("ace_restarts", "Prior starts of this data dir.", obs.Gauge).Add(float64(st.Restarts))
	e.Family("ace_sessions_recovered_total", "Key bundles reloaded from the disk tier.", obs.Counter).Add(float64(st.SessionsRecovered))
	e.Family("ace_jobs_resumed_total", "Journaled jobs resumed from a checkpoint.", obs.Counter).Add(float64(st.JobsResumed))
	e.Family("ace_checkpoint_bytes_total", "Cumulative checkpoint bytes written.", obs.Counter).Add(float64(st.CheckpointBytes))
	e.Family("ace_store_bytes", "Durable layer's current on-disk footprint.", obs.Gauge).Add(float64(st.StoreBytes))
	e.Family("ace_store_errs_total", "Persistence failures serving survived.", obs.Counter).Add(float64(st.StoreErrs))

	e.Family("ace_pending_recovery", "Journaled jobs crash recovery is still re-executing (readiness gate).", obs.Gauge).Add(float64(st.PendingRecovery))
	e.Family("ace_replica_sessions_total", "Replicated key bundles applied on this shard for a peer.", obs.Counter).Add(float64(st.ReplicaSessions))
	e.Family("ace_replica_results_total", "Replicated journal completions applied on this shard.", obs.Counter).Add(float64(st.ReplicaResults))
	e.Family("ace_replica_ship_errs_total", "Replication shipments this shard failed to send.", obs.Counter).Add(float64(st.ReplicaShipErrs))

	tables := []struct {
		name string
		st   api.TableStatz
	}{{"program", st.ProgramTable}, {"bootstrap", st.BootstrapTable}}
	te := e.Family("ace_plaintext_table_entries", "Encoded plaintexts held by a shared table.", obs.Gauge)
	tb := e.Family("ace_plaintext_table_bytes", "Bytes of encoded plaintexts held by a shared table.", obs.Gauge)
	th := e.Family("ace_plaintext_table_hits_total", "Plaintext lookups answered from a shared table.", obs.Counter)
	tm := e.Family("ace_plaintext_table_misses_total", "Plaintext lookups that had to encode.", obs.Counter)
	for _, t := range tables {
		l := obs.Label{Name: "table", Value: t.name}
		te.Add(float64(t.st.Entries), l)
		tb.Add(float64(t.st.Bytes), l)
		th.Add(float64(t.st.Hits), l)
		tm.Add(float64(t.st.Misses), l)
	}

	e.Family("ace_program_info", "Compiled program served by this daemon; value is always 1.", obs.Gauge).
		Add(1, obs.Label{Name: "name", Value: s.name})

	var buf bytes.Buffer
	if err := e.Write(&buf); err != nil {
		api.WriteError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentTypeExposition)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
