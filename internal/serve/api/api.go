// Package api defines the wire-level contract of the aced serving
// daemon: URL paths, header names and the JSON envelopes exchanged by
// internal/serve (the server) and internal/fheclient (the client).
// Bulk payloads — evaluation-key bundles and ciphertexts — travel as raw
// application/octet-stream bodies in the versioned ckks binary format;
// JSON carries only small control data.
package api

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
)

// NewID mints a 128-bit random id in 32 lowercase hex characters: every
// session id (minted by the shard, or by the router so the id's ring
// placement is known before the session exists) and every idempotency
// key the router attaches to a keyless inference.
func NewID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("api: minting id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// ValidID reports whether id has exactly the form NewID produces. Session
// ids arrive from clients (header, query param, URL path) and from
// replicated records, and they become file names and ring keys — anything
// else ("../…", encoded separators, the empty string) must be refused
// before any disk operation or a hostile id escapes the data dir.
func ValidID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// URL paths of the v1 API.
const (
	PathSessions = "/v1/sessions"
	PathInfer    = "/v1/infer"
	PathProgram  = "/v1/program"
	PathHealthz  = "/v1/healthz"
	// PathReadyz is readiness, distinct from liveness: it answers 503
	// while the server drains or while crash recovery is still replaying
	// the job journal, so a cluster router stops routing to shards that
	// are alive but not yet able to serve. Healthz stays liveness-only.
	PathReadyz = "/v1/readyz"
	PathStatz  = "/v1/statz"
	// PathReplica accepts replication shipments from a peer shard: the
	// body is an ACELOG1 log image (internal/store framing) of session
	// and idempotency-journal records, applied CRC-checked and
	// torn-tail-tolerant so a shipper that died mid-stream leaves the
	// replica with the intact prefix, never garbage.
	PathReplica = "/v1/replica"
	// PathCostmodelz serves the calibrated cost model's view of the
	// served program: the default and live-recalibrated constants, the
	// per-opcode fit, and measured vs predicted per-category breakdowns
	// (JSON, debug endpoint).
	PathCostmodelz = "/v1/costmodelz"
	// PathProfilez serves the per-opcode FHE profile (JSON
	// obs.ProfileSnapshot): aggregated instruction costs over every
	// evaluation since boot plus the last run's level/scale trajectory.
	PathProfilez = "/v1/profilez"
	// PathMetrics serves the same counters in Prometheus text
	// exposition format. It sits outside the /v1 prefix because
	// scrapers conventionally expect the bare path.
	PathMetrics = "/metrics"

	// Cluster membership endpoints. The router owns the membership state
	// machine: PathClusterJoin and PathClusterLeave mutate the ring
	// (adding or draining a shard) and PathClusterMembership reads the
	// current epoch + member list — served by the router authoritatively
	// and by every shard as its last-adopted view, so clients and
	// operators can refresh a stale endpoint list from any live process.
	// PathClusterUpdate is shard-side only: the router broadcasts each
	// committed ring change there and the shard re-replicates the
	// ownership delta before acknowledging.
	PathClusterJoin       = "/v1/cluster/join"
	PathClusterLeave      = "/v1/cluster/leave"
	PathClusterMembership = "/v1/cluster/membership"
	PathClusterUpdate     = "/v1/cluster/update"
)

// Request headers.
const (
	// HeaderSession carries the session ID on inference requests.
	HeaderSession = "X-ACE-Session"
	// HeaderDeadlineMs carries an optional per-request deadline in
	// milliseconds; the server clamps it to its configured maximum and
	// aborts the homomorphic evaluation when it expires.
	HeaderDeadlineMs = "X-ACE-Deadline-Ms"
	// HeaderIdemKey carries an optional idempotency key on /v1/infer. A
	// retried request bearing the same key replays the stored result —
	// bit-identical ciphertext, no re-execution — or attaches to the
	// in-flight execution if one is still running. Keys are scoped to
	// the session.
	HeaderIdemKey = "X-ACE-Idem-Key"
	// HeaderIdemReplayed marks a response served from the idempotency
	// cache rather than a fresh evaluation.
	HeaderIdemReplayed = "X-ACE-Idem-Replayed"
	// HeaderLane and HeaderLaneStride are set on /v1/infer responses
	// when the server evaluated the request inside a shared batched
	// ciphertext: the reply holds BatchStride interleaved results, and
	// this caller's logical slot i lives at physical slot i·stride+lane.
	// Absent (or stride ≤ 1) means the reply is a plain solo ciphertext.
	HeaderLane       = "X-ACE-Lane"
	HeaderLaneStride = "X-ACE-Lane-Stride"
	// HeaderTrace carries the request trace id on /v1/infer, in both
	// directions: a client may supply one (8..64 lowercase hex
	// characters) to correlate its own logs with the server's; anything
	// else — including absence — makes the server mint a fresh id. The
	// response always echoes the id actually used, and every structured
	// log event for the request carries it as the "trace" attribute.
	HeaderTrace = "X-ACE-Trace"
	// HeaderEpoch carries the cluster membership epoch. Replica shipments
	// stamp the shipper's epoch so a receiver on a newer ring can answer
	// 409 with its Membership (the shipper adopts it and re-targets);
	// shards stamp their current epoch on /v1/infer replies so clients can
	// notice a topology change and refresh their endpoint list.
	HeaderEpoch = "X-ACE-Epoch"
)

// ContentTypeBinary is the media type of key and ciphertext bodies.
const ContentTypeBinary = "application/octet-stream"

// ProgramSpec is returned by GET /v1/program: everything a client needs
// to generate compatible key material and encrypt inputs. Params holds a
// serialized ckks.ParametersLiteral — prime generation is deterministic,
// so decoding it yields the server's exact rings. Rotations (ascending)
// and Conjugation name the Galois keys a session's bundle must hold; the
// relinearization key is always required on top.
type ProgramSpec struct {
	Name        string  `json:"name"`
	Params      []byte  `json:"params"`
	LogN        int     `json:"log_n"`
	VecLen      int     `json:"vec_len"`
	InputLevel  int     `json:"input_level"`
	InputScale  float64 `json:"input_scale"`
	Rotations   []int   `json:"rotations"`
	Conjugation bool    `json:"conjugation"`
	Bootstraps  int     `json:"bootstraps"`
	// BatchStride > 1 means the server runs a lane-transformed program:
	// clients must encode their VecLen input strided — logical slot i at
	// physical slot i·BatchStride (lane 0) of a VecLen·BatchStride slot
	// vector — and extract their lane from replies per HeaderLane.
	BatchStride int `json:"batch_stride,omitempty"`
}

// SessionReply is returned by POST /v1/sessions.
type SessionReply struct {
	SessionID string `json:"session_id"`
	KeyBytes  int64  `json:"key_bytes"`
	GaloisLen int    `json:"galois_len"`
}

// ErrorReply is the body of every non-2xx response. Code, when present,
// is a stable machine-readable failure class from the internal/fault
// taxonomy (EVAL_PANIC, EVAL_ERROR, FAULT_INJECTED) that clients key
// retry decisions on; Error is human-readable detail.
type ErrorReply struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// WriteJSON writes v as the JSON body of a response with the given
// status; the daemon and the router answer every control request
// through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an ErrorReply without a Code, its message formatted
// from format and args.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorReply{Error: fmt.Sprintf(format, args...)})
}

// Healthz is returned by GET /v1/healthz.
type Healthz struct {
	Status string `json:"status"` // "ok" or "draining"
}

// Readyz is returned by GET /v1/readyz: "ready" with 200 once the shard
// accepts inference traffic; "recovering" (journal replay still
// re-executing jobs) or "draining" with 503 otherwise.
type Readyz struct {
	Status string `json:"status"`
	// PendingRecovery counts journaled jobs still being re-executed by
	// crash recovery while the status is "recovering".
	PendingRecovery int64 `json:"pending_recovery,omitempty"`
}

// ReplicaApply is returned by POST /v1/replica: how many records of the
// shipped image were applied. Torn marks an image that ended mid-frame
// — the intact prefix was applied and the shipper should re-send the
// records past Applied.
type ReplicaApply struct {
	Applied int  `json:"applied"`
	Torn    bool `json:"torn,omitempty"`
}

// Membership is the cluster view at one epoch: the sorted member list of
// the consistent-hash ring. Epoch increments by exactly one per committed
// topology change; Members is the full post-change endpoint list (the
// ring is a pure function of it). Returned by GET /v1/cluster/membership
// and as the 409 body of an epoch-stale /v1/replica shipment.
type Membership struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// JoinRequest is the body of POST /v1/cluster/join: the endpoint of a
// running shard to add to the ring. The call returns only after every
// member has adopted the new ring and the ownership delta has been
// re-replicated.
type JoinRequest struct {
	Endpoint string `json:"endpoint"`
}

// LeaveRequest is the body of POST /v1/cluster/leave. A plain leave is a
// drain: the departing shard re-ships all state it holds to the new
// owners, finishes in-flight work, and acknowledges before the epoch
// commits. Force skips contacting the departing shard — the operator's
// way to eject a dead member (its replicas re-ship the orphaned state
// instead).
type LeaveRequest struct {
	Endpoint string `json:"endpoint"`
	Force    bool   `json:"force,omitempty"`
}

// ClusterUpdate is broadcast by the router to every shard on a topology
// change (POST /v1/cluster/update). Leaving names the departing endpoint
// on a drain ("" for joins/ejections); a shard seeing itself in Leaving
// (or absent from Members) re-ships everything it holds and begins
// drain-for-handoff before acknowledging.
type ClusterUpdate struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
	Leaving string   `json:"leaving,omitempty"`
}

// Leaves reports whether the update takes self out of the ring: self is
// the draining endpoint, or is absent from Members (an ejection).
func (u ClusterUpdate) Leaves(self string) bool {
	return u.Leaving == self || !slices.Contains(u.Members, self)
}

// ClusterUpdateReply acknowledges a ClusterUpdate: the epoch the shard
// now serves under and how many replication records the ownership delta
// made it re-ship.
type ClusterUpdateReply struct {
	Epoch     uint64 `json:"epoch"`
	Reshipped int    `json:"reshipped"`
}

// Statz is returned by GET /v1/statz.
type Statz struct {
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	TimedOut uint64 `json:"timed_out"`
	Failed   uint64 `json:"failed"`
	// Panics counts evaluations that died in a recovered panic — the
	// worker survived, the request answered 500 EVAL_PANIC.
	Panics uint64 `json:"panics"`
	// IdemReplays counts /v1/infer responses served from the idempotency
	// cache instead of a fresh evaluation.
	IdemReplays uint64 `json:"idem_replays"`
	// FaultsFired counts armed injection points firing (zero outside
	// chaos runs).
	FaultsFired uint64 `json:"faults_fired"`
	// QueueExpired counts jobs dropped by workers because their deadline
	// passed while queued — previously folded invisibly into TimedOut.
	QueueExpired uint64 `json:"queue_expired"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	Workers      int    `json:"workers"`
	Draining     bool   `json:"draining"`

	// Cross-request batching: Batches counts multi-job fused evaluations,
	// BatchedJobs the requests they carried (so BatchedJobs/Batches is
	// the realized mean occupancy), SoloFallbacks coalesced windows that
	// closed with a single job and ran unbatched. BatchLanes/BatchStride
	// echo the effective configuration (lanes ≤ stride; 1 = batching off).
	Batches       uint64 `json:"batches"`
	BatchedJobs   uint64 `json:"batched_jobs"`
	SoloFallbacks uint64 `json:"solo_fallbacks"`
	BatchLanes    int    `json:"batch_lanes"`
	BatchStride   int    `json:"batch_stride"`

	Sessions         int    `json:"sessions"`
	SessionBytes     int64  `json:"session_bytes"`
	SessionBudget    int64  `json:"session_budget"`
	SessionHits      uint64 `json:"session_hits"`
	SessionMisses    uint64 `json:"session_misses"`
	SessionEvictions uint64 `json:"session_evictions"`

	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`

	// Durability counters; all zero when the daemon runs without a data
	// dir. Restarts counts prior starts of this data dir (0 on the first
	// boot); SessionsRecovered counts key bundles reloaded from the disk
	// tier; JobsResumed counts journaled jobs that resumed from a
	// checkpoint rather than re-executing from instruction 0.
	Restarts          uint64 `json:"restarts"`
	SessionsRecovered uint64 `json:"sessions_recovered"`
	JobsResumed       uint64 `json:"jobs_resumed"`
	// CheckpointBytes is the cumulative checkpoint volume written;
	// StoreBytes the durable layer's current on-disk footprint;
	// StoreErrs the persistence failures serving survived (fail-open).
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	StoreBytes      int64  `json:"store_bytes"`
	StoreErrs       uint64 `json:"store_errs"`

	// Cluster replication: PendingRecovery is the readiness gate (jobs
	// crash recovery is still re-executing); ReplicaSessions and
	// ReplicaResults count records applied on this shard as a replica for
	// a peer; ReplicaShipErrs counts shipments this shard failed to send
	// to its successor (replication is fail-open — serving continued).
	PendingRecovery int64  `json:"pending_recovery"`
	ReplicaSessions uint64 `json:"replica_sessions"`
	ReplicaResults  uint64 `json:"replica_results"`
	ReplicaShipErrs uint64 `json:"replica_ship_errs"`

	// Pre-encoded plaintext tables, shared by every session, worker and
	// batch lane: ProgramTable holds the served program's weights,
	// BootstrapTable the bootstrapper's DFT diagonals (all zero for a
	// program that never bootstraps). In the steady state Misses stands
	// still; Misses growing with Entries flat means the byte budget is
	// spent and the overflow is encoded on every use.
	ProgramTable   TableStatz `json:"program_table"`
	BootstrapTable TableStatz `json:"bootstrap_table"`
}

// TableStatz is one plaintext table's counters (ckks.MemoStats on the
// wire, field for field). A miss is a lookup that had to encode.
type TableStatz struct {
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}
