// Package fault is the runtime's failure-engineering layer: a typed
// error taxonomy for faults that cross the serving boundary, and a
// registry of named injection points that let tests and chaos runs
// trigger those faults deterministically.
//
// Injection points are free when disarmed: Inject performs a single
// atomic load and returns nil, so the hooks threaded through the serve
// queue, the vm instruction dispatch and the fheclient transport cost
// nothing in production. Arming happens either programmatically (tests
// call Arm) or from the ACE_FAULTS environment variable, whose spec is
//
//	point[:count[:seed]][,point[:count[:seed]]...]
//
// where count is how many consecutive invocations fire (default 1) and
// seed is how many invocations to skip first (default 0). Firing is a
// pure function of the invocation number, so a chaos scenario replays
// identically run after run: "serve.worker.panic:1:2" always kills
// exactly the third evaluation and nothing else.
package fault

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registered injection-point names. The registry is open — tests may arm
// ad-hoc names — but these are the points compiled into the runtime.
const (
	// ServeWorkerPanic panics inside a serve worker ahead of evaluation,
	// exercising the pool's panic isolation.
	ServeWorkerPanic = "serve.worker.panic"
	// VMInstrPanic panics inside vm.Machine.RunCtx instruction dispatch,
	// exercising the machine-level recover.
	VMInstrPanic = "vm.instr.panic"
	// VMInstrErr makes an instruction fail with a returned error.
	VMInstrErr = "vm.instr.err"
	// CKKSRescaleErr makes ckks.Evaluator.Rescale fail with a returned
	// error, standing in for a level-exhaustion bug in compiled code.
	CKKSRescaleErr = "ckks.rescale.err"
	// ClientConnReset drops a completed HTTP exchange on the fheclient
	// side, simulating a connection reset after the server already did
	// the work — the case idempotency keys exist for.
	ClientConnReset = "client.conn.reset"
	// StoreWriteTorn makes a store.Log append write only a prefix of
	// its frame and fail — the on-disk state a crash mid-append leaves
	// behind — exercising torn-write truncation and replay healing.
	StoreWriteTorn = "store.write.torn"
	// ServeRecoverErr fails one journaled job's recovery during daemon
	// startup, exercising the forget-and-re-execute fallback path.
	ServeRecoverErr = "serve.recover.err"
	// BatchFlushPanic panics inside the batched evaluation path after a
	// coalesced group has been handed to a worker, exercising the
	// batch-wide failure boundary: every job in that group must fail,
	// and no other group may be affected.
	BatchFlushPanic = "batch.flush.panic"
	// RouterForwardErr fails one acerouter forward before the request
	// leaves the router — indistinguishable from a backend that died
	// between health probes — exercising the failover path onto the
	// session's replica shard.
	RouterForwardErr = "router.forward.err"
	// ReplicaShipTorn truncates one replication shipment mid-frame, the
	// on-the-wire shape of a shard that died while streaming its journal
	// to a successor: the apply side must keep the intact prefix and the
	// shipper must re-ship the cut records.
	ReplicaShipTorn = "replica.ship.torn"
	// RouterHedgeFire forces the router's hedging timer for one infer to
	// fire immediately, issuing the duplicate request to the replica
	// regardless of the primary's observed latency — the deterministic
	// way to exercise the hedge race and its exactly-once guarantee.
	RouterHedgeFire = "router.hedge.fire"
)

// InjectedError is the error produced by a firing injection point.
type InjectedError struct {
	Point string // which point fired
	Hit   uint64 // 1-based count of fires at this point
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected at %s (hit %d)", e.Point, e.Hit)
}

// pointState is one armed injection point. calls counts invocations;
// the point fires on invocation numbers skip+1 .. skip+count.
type pointState struct {
	skip  uint64
	count uint64
	calls atomic.Uint64
	fired atomic.Uint64
}

var (
	enabled atomic.Bool
	mu      sync.RWMutex
	points  map[string]*pointState
)

// Inject is the hook call sites thread through their failure paths. It
// returns nil unless the named point is armed and this invocation falls
// in its firing window, in which case it returns an *InjectedError for
// the caller to propagate.
func Inject(name string) error {
	if !enabled.Load() {
		return nil
	}
	mu.RLock()
	st := points[name]
	mu.RUnlock()
	if st == nil {
		return nil
	}
	n := st.calls.Add(1)
	if n <= st.skip || n > st.skip+st.count {
		return nil
	}
	return &InjectedError{Point: name, Hit: st.fired.Add(1)}
}

// InjectPanic is Inject for call sites that simulate crashes rather than
// returned errors: when the point fires it panics with the
// *InjectedError, which the recover layers convert to a RuntimeError.
func InjectPanic(name string) {
	if err := Inject(name); err != nil {
		panic(err)
	}
}

// Arm parses a spec and replaces the armed set. An empty spec disarms
// everything (same as Disarm).
func Arm(spec string) error {
	parsed, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	points = make(map[string]*pointState, len(parsed))
	for _, e := range parsed {
		st := &pointState{skip: e.Seed, count: e.Count}
		points[e.Point] = st
	}
	mu.Unlock()
	enabled.Store(len(parsed) > 0)
	return nil
}

// ArmFromEnv arms from the ACE_FAULTS environment variable; a missing or
// empty variable leaves everything disarmed. It reports whether anything
// was armed.
func ArmFromEnv() (bool, error) {
	spec := os.Getenv("ACE_FAULTS")
	if spec == "" {
		return false, nil
	}
	if err := Arm(spec); err != nil {
		return false, fmt.Errorf("fault: ACE_FAULTS: %w", err)
	}
	return true, nil
}

// Disarm clears every armed point; subsequent Inject calls are no-ops.
func Disarm() {
	enabled.Store(false)
	mu.Lock()
	points = nil
	mu.Unlock()
}

// SpecEntry is one parsed ACE_FAULTS element.
type SpecEntry struct {
	Point string
	Count uint64 // consecutive invocations that fire
	Seed  uint64 // invocations skipped before the first fire
}

// ParseSpec parses an ACE_FAULTS spec without arming anything. Entries
// are comma-separated point[:count[:seed]]; whitespace around entries is
// ignored; duplicate points are rejected so a spec has one unambiguous
// meaning.
func ParseSpec(spec string) ([]SpecEntry, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []SpecEntry
	seen := map[string]bool{}
	for _, raw := range strings.Split(spec, ",") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			return nil, fmt.Errorf("fault: empty entry in spec %q", spec)
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("fault: entry %q has more than point:count:seed", entry)
		}
		name := parts[0]
		if name == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("fault: bad point name %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("fault: point %q armed twice", name)
		}
		seen[name] = true
		e := SpecEntry{Point: name, Count: 1}
		if len(parts) > 1 {
			n, err := strconv.ParseUint(parts[1], 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("fault: bad count %q in entry %q", parts[1], entry)
			}
			e.Count = n
		}
		if len(parts) > 2 {
			n, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q in entry %q", parts[2], entry)
			}
			e.Seed = n
		}
		out = append(out, e)
	}
	return out, nil
}

// PointStatus is one armed point's live counters.
type PointStatus struct {
	Point string `json:"point"`
	Seed  uint64 `json:"seed"`
	Count uint64 `json:"count"`
	Calls uint64 `json:"calls"`
	Fired uint64 `json:"fired"`
}

// Snapshot returns the armed points and their counters, sorted by name;
// nil when nothing is armed. Shutdown paths log this so post-mortem
// state survives the process.
func Snapshot() []PointStatus {
	mu.RLock()
	defer mu.RUnlock()
	if len(points) == 0 {
		return nil
	}
	out := make([]PointStatus, 0, len(points))
	for name, st := range points {
		out = append(out, PointStatus{
			Point: name,
			Seed:  st.skip,
			Count: st.count,
			Calls: st.calls.Load(),
			Fired: st.fired.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// TotalFired sums fires across all armed points (a /v1/statz gauge).
func TotalFired() uint64 {
	var total uint64
	for _, st := range Snapshot() {
		total += st.Fired
	}
	return total
}

// Error codes carried by RuntimeError. They are part of the wire
// contract (api.ErrorReply.Code) and must stay stable.
const (
	// CodeEvalPanic: a panic escaped the crypto core or a serve worker
	// and was converted at a recovery boundary. The worker survives; the
	// request fails with 500.
	CodeEvalPanic = "EVAL_PANIC"
	// CodeEvalError: evaluation failed with an ordinary returned error.
	CodeEvalError = "EVAL_ERROR"
	// CodeInjected: an armed injection point fired on the error path.
	CodeInjected = "FAULT_INJECTED"
)

// RuntimeError is the typed form of a fault that crossed an isolation
// boundary: a stable machine-readable Code, the operation that failed,
// the underlying cause, and (for panics) the stack captured at the
// recovery point.
type RuntimeError struct {
	Code  string
	Op    string
	Err   error
	Stack []byte
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s at %s: %v", e.Code, e.Op, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// FromPanic converts a recovered panic value into a RuntimeError,
// capturing the stack of the recovery point. Injected panics are
// deliberately NOT distinguished here: a panic is a panic whatever armed
// it, so chaos runs exercise exactly the production recovery path.
func FromPanic(op string, rec any) *RuntimeError {
	err, ok := rec.(error)
	if !ok {
		err = fmt.Errorf("%v", rec)
	}
	return &RuntimeError{Code: CodeEvalPanic, Op: op, Err: err, Stack: debug.Stack()}
}

// AsRuntime unwraps err to a *RuntimeError, or wraps it as one with the
// given code when it is not already typed. Errors originating at an
// injection point are coded CodeInjected regardless of the suggested
// code, so chaos-run failures are distinguishable from organic ones.
// A nil err returns nil.
func AsRuntime(code, op string, err error) *RuntimeError {
	if err == nil {
		return nil
	}
	var re *RuntimeError
	if errors.As(err, &re) {
		return re
	}
	var inj *InjectedError
	if errors.As(err, &inj) {
		return &RuntimeError{Code: CodeInjected, Op: op, Err: err}
	}
	return &RuntimeError{Code: code, Op: op, Err: err}
}
