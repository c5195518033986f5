// Package fheclient is the client half of the serving layer's threat
// model: it owns the secret key and never sends it anywhere. Dial
// fetches the compiled program's spec from an aced daemon, Register
// draws a key holder (vm.Client) that generates the evaluation keys the
// spec names and uploads the public ones, and Infer encrypts a slot
// vector, streams the ciphertext through the server and decrypts the
// reply locally. What this package adds to the key holder is transport:
// dialing, retries, membership and idempotency.
package fheclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"antace/internal/ckks"
	"antace/internal/fault"
	"antace/internal/obs"
	"antace/internal/serve/api"
	"antace/internal/vm"
)

// APIError is a non-2xx reply from the daemon, with the decoded server
// message and stable failure code when one was sent.
type APIError struct {
	Status     int
	Message    string
	Code       string        // fault-taxonomy code (EVAL_PANIC, ...) when the server sent one
	RetryAfter time.Duration // populated on 429/503 responses carrying Retry-After
	Epoch      uint64        // membership epoch from X-ACE-Epoch, when the server stamped one
}

func (e *APIError) Error() string {
	switch {
	case e.Message == "":
		return fmt.Sprintf("fheclient: server returned %d", e.Status)
	case e.Code != "":
		return fmt.Sprintf("fheclient: server returned %d [%s]: %s", e.Status, e.Code, e.Message)
	default:
		return fmt.Sprintf("fheclient: server returned %d: %s", e.Status, e.Message)
	}
}

// IsQueueFull reports whether the server pushed back with 429.
func (e *APIError) IsQueueFull() bool { return e.Status == http.StatusTooManyRequests }

// IsDeadline reports whether the server gave up on the request deadline.
func (e *APIError) IsDeadline() bool { return e.Status == http.StatusGatewayTimeout }

// retryable reports whether another attempt can succeed: queue pushback,
// a draining/restarting server, or an evaluation that died in a
// recovered panic (the idempotency key makes re-sending safe). Client
// errors and server deadline exhaustion are final.
func (e *APIError) retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	case http.StatusInternalServerError:
		return e.Code == "EVAL_PANIC" || e.Code == "FAULT_INJECTED"
	default:
		return false
	}
}

// RetryPolicy tunes Infer's retry loop. The zero value is sane:
// DefaultRetryPolicy is applied by Dial; SetRetryPolicy overrides it;
// MaxAttempts=1 disables retries entirely.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call, the first included
	// (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); attempt k
	// waits BaseDelay×2^k with up to 50% random jitter subtracted, so
	// synchronized clients spread out.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
	// Budget caps the total time spent sleeping between attempts per
	// call (default 15s); the context deadline bounds everything anyway.
	Budget time.Duration
	// ReconnectWindow tolerates a daemon restart: while a connection is
	// refused outright (nothing listening — the window between a crash
	// and the recovered daemon binding its port), the client keeps
	// reconnecting with ReconnectDelay-capped backoff for up to this
	// long, and those attempts do not count against MaxAttempts. Zero
	// disables the treatment and refused connections consume ordinary
	// attempts (default 10s under Dial's policy).
	ReconnectWindow time.Duration
	// ReconnectDelay caps the sleep between reconnect probes during the
	// window (default 250ms) — restarts are bounded by recovery time,
	// not by load, so probing faster than ordinary backoff is safe.
	ReconnectDelay time.Duration
}

// DefaultRetryPolicy is the policy Dial installs.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second,
		Budget: 15 * time.Second, ReconnectWindow: 10 * time.Second, ReconnectDelay: 250 * time.Millisecond}
}

// WithDefaults fills unset policy fields with the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 15 * time.Second
	}
	if p.ReconnectWindow > 0 && p.ReconnectDelay <= 0 {
		p.ReconnectDelay = 250 * time.Millisecond
	}
	return p
}

// Backoff computes the sleep before attempt number attempt (1-based
// count of failures so far), honoring a server Retry-After hint as the
// floor when it is longer than the computed delay. Exported so other
// retrying callers of the serving API (the cluster shipper, the router)
// pace themselves identically.
func (p RetryPolicy) Backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Full jitter over [d/2, d]: deterministic chaos runs rely on the
	// retry happening, not on its exact spacing.
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Client talks to one aced daemon. Infer is safe for concurrent use by
// multiple goroutines sharing the registered session; the key holder
// serializes its encryptor while HTTP round trips (the slow part)
// proceed in parallel.
type Client struct {
	base string
	hc   *http.Client
	spec api.ProgramSpec

	// Multi-endpoint dialing (DialMulti): bases is the full candidate
	// list and epIdx the one currently in use; retryable failures rotate
	// to the next candidate before re-attempting, so one dead or draining
	// front does not strand the client while its siblings serve. Empty
	// bases means the single-endpoint behavior, untouched.
	//
	// memEpoch is the cluster membership epoch behind bases: 0 until the
	// client has adopted a live /v1/cluster/membership view, after which
	// a 404 or an epoch-stamped error triggers a re-fetch instead of
	// cycling the stale list (see refreshMembership).
	epMu     sync.Mutex
	bases    []string
	epIdx    int
	memEpoch uint64

	params *ckks.Parameters
	enc    *ckks.Encoder

	retry RetryPolicy

	mu        sync.Mutex // guards the session and its key holder
	holder    *vm.Client
	sessionID string
}

// SetRetryPolicy replaces the retry policy Dial installed. Not safe to
// call concurrently with Infer.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p.WithDefaults() }

// Dial fetches the program spec and compiles the matching parameters
// (prime derivation is deterministic, so client and server rings agree
// bit for bit). A nil http.Client uses http.DefaultClient.
func Dial(ctx context.Context, baseURL string, hc *http.Client) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: baseURL, hc: hc, retry: DefaultRetryPolicy()}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+api.PathProgram, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fheclient: fetching program spec: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&c.spec); err != nil {
		return nil, fmt.Errorf("fheclient: decoding program spec: %w", err)
	}
	if c.params, err = ckks.ParamsFromBytes(c.spec.Params); err != nil {
		return nil, fmt.Errorf("fheclient: compiling server parameters: %w", err)
	}
	c.enc = ckks.NewEncoder(c.params)
	return c, nil
}

// DialMulti is Dial over a candidate endpoint list: the spec is fetched
// from the first endpoint that answers, and every retryable inference
// failure afterwards rotates to the next candidate before the retry.
// All endpoints must serve the same compiled program (a cluster of aced
// shards behind consistent hashing, or several acerouter fronts).
func DialMulti(ctx context.Context, baseURLs []string, hc *http.Client) (*Client, error) {
	if len(baseURLs) == 0 {
		return nil, fmt.Errorf("fheclient: no endpoints to dial")
	}
	var lastErr error
	for i, u := range baseURLs {
		c, err := Dial(ctx, u, hc)
		if err == nil {
			c.bases = append([]string(nil), baseURLs...)
			c.epIdx = i
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fheclient: all %d endpoints failed, last: %w", len(baseURLs), lastErr)
}

// endpoint returns the base URL requests currently target.
func (c *Client) endpoint() string {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if len(c.bases) == 0 {
		return c.base
	}
	return c.bases[c.epIdx%len(c.bases)]
}

// rotateEndpoint advances to the next candidate; a no-op under a single
// endpoint.
func (c *Client) rotateEndpoint() bool {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if len(c.bases) < 2 {
		return false
	}
	c.epIdx = (c.epIdx + 1) % len(c.bases)
	return true
}

// MembershipEpoch returns the cluster membership epoch the endpoint list
// was adopted from, or 0 while the client still runs on its dialed list.
func (c *Client) MembershipEpoch() uint64 {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return c.memEpoch
}

// refreshMembership re-fetches /v1/cluster/membership from the current
// candidates and adopts a strictly newer view as the endpoint list,
// reporting whether anything changed. Two guards keep it safe:
//
//   - Only a view whose epoch exceeds the one already adopted counts, so
//     one refresh per topology change — a 404 that persists after a
//     successful refresh is a genuinely unknown session, not staleness.
//   - The view is adopted only when at least one current base appears in
//     its member list. Shards list themselves; a router's view lists its
//     shards, never itself. The overlap test therefore lets shard-dialed
//     clients track the ring while router-dialed clients stay behind the
//     router instead of silently degrading to direct shard access.
func (c *Client) refreshMembership(ctx context.Context) bool {
	c.epMu.Lock()
	bases := append([]string(nil), c.bases...)
	if len(bases) == 0 {
		bases = []string{c.base}
	}
	known := c.memEpoch
	c.epMu.Unlock()

	for _, b := range bases {
		m, err := c.fetchMembership(ctx, b)
		if err != nil || m.Epoch <= known || len(m.Members) == 0 {
			continue
		}
		overlap := false
		for _, member := range m.Members {
			for _, cur := range bases {
				if member == cur {
					overlap = true
					break
				}
			}
			if overlap {
				break
			}
		}
		if !overlap {
			continue
		}
		c.epMu.Lock()
		adopted := m.Epoch > c.memEpoch
		if adopted {
			c.memEpoch = m.Epoch
			c.bases = append([]string(nil), m.Members...)
			c.epIdx = 0
		}
		c.epMu.Unlock()
		if adopted {
			return true
		}
	}
	return false
}

// fetchMembership performs one GET /v1/cluster/membership round trip.
func (c *Client) fetchMembership(ctx context.Context, base string) (api.Membership, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+api.PathClusterMembership, nil)
	if err != nil {
		return api.Membership{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return api.Membership{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.Membership{}, apiError(resp)
	}
	var m api.Membership
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m); err != nil {
		return api.Membership{}, fmt.Errorf("fheclient: decoding membership: %w", err)
	}
	return m, nil
}

// Spec returns the program spec fetched at Dial time.
func (c *Client) Spec() api.ProgramSpec { return c.spec }

// Params returns the compiled parameter set.
func (c *Client) Params() *ckks.Parameters { return c.params }

// SessionID returns the registered session, or "" before Register.
func (c *Client) SessionID() string { return c.sessionID }

// Register draws a key holder, has it generate the evaluation keys the
// program spec names (relinearization, then the rotation and
// conjugation keys, the bootstrap circuit's included), uploads the
// public bundle and stores the returned session ID. The secret key stays
// inside the holder. A nil seed draws fresh randomness; pass one only in
// tests.
func (c *Client) Register(ctx context.Context, seed *[32]byte) (string, error) {
	layout := vm.Layout{VecLen: c.spec.VecLen, Level: c.spec.InputLevel, Scale: c.spec.InputScale, Stride: c.spec.BatchStride}
	holder, err := vm.NewClient(c.params, c.enc, layout, seed)
	if err != nil {
		return "", fmt.Errorf("fheclient: %w", err)
	}
	bundle, err := holder.Keys(vm.KeySet{Rotations: c.spec.Rotations, Conjugation: c.spec.Conjugation}).MarshalBinary()
	if err != nil {
		return "", fmt.Errorf("fheclient: encoding key bundle: %w", err)
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint()+api.PathSessions, bytes.NewReader(bundle))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("fheclient: uploading keys: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", apiError(resp)
	}
	var reply api.SessionReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", fmt.Errorf("fheclient: decoding session reply: %w", err)
	}

	c.mu.Lock()
	c.sessionID = reply.SessionID
	c.holder = holder
	c.mu.Unlock()
	return reply.SessionID, nil
}

// registered returns the registered session's key holder.
func (c *Client) registered() (*vm.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holder == nil {
		return nil, fmt.Errorf("fheclient: not registered (call Register first)")
	}
	return c.holder, nil
}

// Encrypt packs a slot vector at the program's input level and scale.
// Against a batching server (spec.BatchStride > 1) the vector is
// encoded strided into lane 0 — logical slot i at physical slot
// i·stride — which is the layout the server's lane-transformed program
// consumes; the server moves the ciphertext to its assigned lane with a
// single rotation at pack time.
func (c *Client) Encrypt(values []float64) (*ckks.Ciphertext, error) {
	h, err := c.registered()
	if err != nil {
		return nil, err
	}
	return h.Encrypt(values)
}

// Decrypt recovers the slot vector from a solo result ciphertext (lane
// 0). For replies from a batched evaluation use DecryptLane with the
// lane InferCipherLane returned.
func (c *Client) Decrypt(ct *ckks.Ciphertext) ([]float64, error) {
	return c.DecryptLane(ct, 0)
}

// DecryptLane recovers this caller's slot vector from a (possibly
// shared) result ciphertext laid out at the spec's BatchStride: decrypt,
// decode and keep the slots at i·stride+lane. Extraction is pure
// client-side index math on decoded slots — it costs no homomorphic
// operation.
func (c *Client) DecryptLane(ct *ckks.Ciphertext, lane int) ([]float64, error) {
	h, err := c.registered()
	if err != nil {
		return nil, err
	}
	return h.DecryptLane(ct, lane)
}

// transientError marks a failure where the request may never have
// reached the server, or its response was lost in flight — safe to
// retry because the idempotency key prevents double execution.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// InferCipher streams one ciphertext through the server and returns the
// encrypted result. The request deadline is taken from ctx and forwarded
// to the server so both sides give up together.
//
// Transient failures — connection errors, 429/503 pushback, and 500s
// whose code marks a recovered panic — are retried under the client's
// RetryPolicy with exponential backoff plus jitter, honoring a server
// Retry-After hint. Every attempt of one call carries the same
// randomly drawn idempotency key, so a retry whose predecessor actually
// executed replays the stored result instead of running the program
// twice.
//
// Every attempt also carries one trace id in the X-ACE-Trace header —
// taken from ctx (obs.WithTrace) when the caller supplied one, minted
// otherwise — so one logical inference is a single greppable id across
// the client's retries and the server's structured logs.
func (c *Client) InferCipher(ctx context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	out, _, err := c.InferCipherLane(ctx, ct)
	return out, err
}

// InferCipherLane is InferCipher plus the lane of the reply that holds
// this caller's slots, for DecryptLane: when the server evaluated the
// request inside a shared batched ciphertext its headers name the lane;
// a solo reply is lane 0. A reply whose lane stride is not the spec's
// BatchStride is refused, since no lane of it decodes correctly.
func (c *Client) InferCipherLane(ctx context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, int, error) {
	c.mu.Lock()
	id := c.sessionID
	c.mu.Unlock()
	if id == "" {
		return nil, 0, fmt.Errorf("fheclient: not registered (call Register first)")
	}
	body, err := ct.MarshalBinary()
	if err != nil {
		return nil, 0, fmt.Errorf("fheclient: encoding ciphertext: %w", err)
	}

	trace := obs.TraceID(ctx)
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
		ctx = obs.WithTrace(ctx, trace)
	}
	idemKey := fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
	pol := c.retry.WithDefaults()
	var slept time.Duration
	var refusedSince time.Time
	refreshed := false
	for attempt := 1; ; attempt++ {
		out, lane, err := c.inferOnce(ctx, id, idemKey, trace, body)
		if err == nil {
			return out, lane, nil
		}
		// Under DialMulti a failed endpoint is sidestepped, not waited out:
		// rotate to the next candidate before any retry accounting, so the
		// reconnect probes below and the ordinary backoff attempts each hit
		// a different front. The shared idempotency key keeps the cross-
		// endpoint retry exactly-once.
		if isConnRefused(err) || func() bool { _, r := classify(err); return r }() {
			c.rotateEndpoint()
		}
		// A refused connection means nothing is listening — the window
		// between a daemon crash and its recovered successor binding the
		// port. Within ReconnectWindow these probes ride for free: they
		// do not consume attempts or backoff budget, and they re-probe on
		// the short ReconnectDelay cadence rather than ordinary backoff.
		if pol.ReconnectWindow > 0 && isConnRefused(err) {
			if refusedSince.IsZero() {
				refusedSince = time.Now()
			}
			if time.Since(refusedSince) < pol.ReconnectWindow {
				select {
				case <-ctx.Done():
					return nil, 0, ctx.Err()
				case <-time.After(pol.ReconnectDelay):
				}
				attempt--
				continue
			}
			// Window exhausted: fall through to ordinary accounting.
		} else {
			refusedSince = time.Time{}
		}
		retryAfter, retryable := classify(err)
		// A 404 from a shard means it does not hold the session — after a
		// membership change, the usual cause is that the endpoint list is
		// stale and the session's owner moved. Instead of burning the rest
		// of the retry budget cycling dead candidates, re-fetch the
		// membership; a strictly newer adopted view makes this one failure
		// retryable against the fresh list. The epoch guard inside
		// refreshMembership bounds this to once per topology change, so a
		// 404 that persists on current endpoints stays final.
		if !retryable && ctx.Err() == nil {
			var ae *APIError
			if errors.As(err, &ae) && (ae.Status == http.StatusNotFound || ae.Epoch > c.MembershipEpoch()) {
				switch {
				case c.refreshMembership(ctx):
					refreshed = true
					retryable = true
				case refreshed && ae.Status == http.StatusNotFound && c.rotateEndpoint():
					// The list is already fresh (this call adopted it), so
					// the owner is another member: keep cycling the FRESH
					// list within the attempt budget — what made the old
					// behavior wrong was cycling a stale one.
					retryable = true
				}
			}
		}
		if !retryable || attempt >= pol.MaxAttempts || ctx.Err() != nil {
			var te *transientError
			if errors.As(err, &te) {
				err = te.err
			}
			return nil, 0, err
		}
		d := pol.Backoff(attempt, retryAfter)
		if slept+d > pol.Budget {
			return nil, 0, fmt.Errorf("fheclient: retry budget %v exhausted after %d attempts: %w", pol.Budget, attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(d):
			slept += d
		}
	}
}

// isConnRefused reports a connection refused outright (no listener on
// the port), as opposed to a reset or timeout on an established one.
func isConnRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// classify decides whether err is worth another attempt and extracts any
// server pacing hint.
func classify(err error) (retryAfter time.Duration, retryable bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter, apiErr.retryable()
	}
	var te *transientError
	return 0, errors.As(err, &te)
}

// inferOnce performs one HTTP round trip of InferCipher, returning the
// reply's lane alongside the ciphertext (0 on a solo reply without lane
// headers).
func (c *Client) inferOnce(ctx context.Context, id, idemKey, trace string, body []byte) (*ckks.Ciphertext, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint()+api.PathInfer, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	req.Header.Set(api.HeaderSession, id)
	req.Header.Set(api.HeaderIdemKey, idemKey)
	req.Header.Set(api.HeaderTrace, trace)
	if dl, ok := ctx.Deadline(); ok {
		// Give the server slightly less than our own budget, so its 504
		// reaches us before ctx aborts the connection and we lose the
		// diagnosis.
		remaining := time.Until(dl)
		margin := remaining / 10
		if margin < 50*time.Millisecond {
			margin = 50 * time.Millisecond
		}
		if ms := (remaining - margin).Milliseconds(); ms > 0 {
			req.Header.Set(api.HeaderDeadlineMs, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("fheclient: inference request: %w", err)
		}
		return nil, 0, &transientError{fmt.Errorf("fheclient: inference request: %w", err)}
	}
	defer resp.Body.Close()
	// Chaos hook: the server already answered, but the response is lost
	// before we read it — exactly the window where only the idempotency
	// key keeps a retry from executing the program twice.
	if ferr := fault.Inject(fault.ClientConnReset); ferr != nil {
		return nil, 0, &transientError{fmt.Errorf("fheclient: inference request: connection reset: %w", ferr)}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, apiError(resp)
	}
	lane := 0
	if h := resp.Header.Get(api.HeaderLaneStride); h != "" {
		if stride, err := strconv.Atoi(h); err != nil || stride != c.spec.BatchStride {
			return nil, 0, fmt.Errorf("fheclient: reply %s %q, the program spec says %d", api.HeaderLaneStride, h, c.spec.BatchStride)
		}
		if h := resp.Header.Get(api.HeaderLane); h != "" {
			if lane, err = strconv.Atoi(h); err != nil {
				return nil, 0, fmt.Errorf("fheclient: bad %s header %q", api.HeaderLane, h)
			}
		}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, &transientError{fmt.Errorf("fheclient: reading result: %w", err)}
	}
	out := &ckks.Ciphertext{}
	if err := out.UnmarshalBinary(data); err != nil {
		return nil, 0, fmt.Errorf("fheclient: decoding result: %w", err)
	}
	return out, lane, nil
}

// Infer runs one encrypted inference end to end: encrypt locally, stream
// through the server, decrypt locally. Against a batching server the
// reply may be a shared ciphertext; the lane headers say which
// interleaved slots are this call's result and Infer extracts them
// transparently, so callers never see the batching.
func (c *Client) Infer(ctx context.Context, values []float64) ([]float64, error) {
	ct, err := c.Encrypt(values)
	if err != nil {
		return nil, err
	}
	out, lane, err := c.InferCipherLane(ctx, ct)
	if err != nil {
		return nil, err
	}
	return c.DecryptLane(out, lane)
}

// Drop deletes the registered session server-side.
func (c *Client) Drop(ctx context.Context) error {
	c.mu.Lock()
	id := c.sessionID
	c.mu.Unlock()
	if id == "" {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.endpoint()+api.PathSessions+"/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return apiError(resp)
	}
	c.mu.Lock()
	c.sessionID = ""
	c.mu.Unlock()
	return nil
}

// apiError decodes a non-2xx response into an APIError.
func apiError(resp *http.Response) error {
	e := &APIError{Status: resp.StatusCode}
	var reply api.ErrorReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&reply); err == nil {
		e.Message = reply.Error
		e.Code = reply.Code
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		e.RetryAfter = time.Duration(sec) * time.Second
	}
	if ep, err := strconv.ParseUint(resp.Header.Get(api.HeaderEpoch), 10, 64); err == nil {
		e.Epoch = ep
	}
	return e
}
