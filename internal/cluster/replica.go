package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"antace/internal/fault"
	"antace/internal/fheclient"
	"antace/internal/serve/api"
	"antace/internal/store"
)

// ShipperStats are the Shipper's monotone counters.
type ShipperStats struct {
	Shipped    uint64 `json:"shipped"`    // records acknowledged by a replica
	Reshipped  uint64 `json:"reshipped"`  // records re-sent after a torn apply
	Errors     uint64 `json:"errors"`     // shipments abandoned after retries
	Rebalanced uint64 `json:"rebalanced"` // records re-shipped by membership changes
}

// Shipper implements the serve layer's Replicator against a cluster
// ring: every session's durable state ships to the ring successor of
// that session's primary. Serve owns the record format; the shipper
// moves each record as an opaque frame of an ACELOG1 log image, checked
// end to end by the store layer's CRCs. Session records ship
// synchronously — when registration answers 201, the replica can
// already serve the session — while completions ride an ordered async
// queue, so the request fast path never waits on a peer (a lost
// completion only costs a deterministic re-execution on failover).
type Shipper struct {
	self string
	hc   *http.Client
	log  *slog.Logger
	pol  fheclient.RetryPolicy

	// ring and epoch swap atomically on membership changes: Adopt installs
	// the new topology first, so everything enqueued afterwards targets the
	// new owners, then Rebalance re-ships the ownership delta.
	ringMu sync.RWMutex
	ring   *Ring
	epoch  uint64

	mu     sync.Mutex
	queue  []shipItem
	kick   chan struct{}
	closed bool
	wg     sync.WaitGroup

	stats struct {
		mu                                     sync.Mutex
		shipped, reshipped, errors, rebalanced uint64
	}
}

// shipItem carries a record with the session it belongs to: the target
// shard is computed from the session at drain time, so records queued
// across a membership change land on the post-change successor.
type shipItem struct {
	session string
	rec     []byte
}

// NewShipper builds a Shipper for the shard at self (which must be a
// ring member). A nil http.Client uses a dedicated one with sane
// timeouts; a nil logger discards.
func NewShipper(ring *Ring, self string, hc *http.Client, log *slog.Logger) (*Shipper, error) {
	ok := false
	for _, ep := range ring.Endpoints() {
		if ep == self {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("cluster: shipper self %q is not a ring member %v", self, ring.Endpoints())
	}
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Shipper{
		ring: ring,
		self: self,
		hc:   hc,
		log:  log,
		pol:  fheclient.DefaultRetryPolicy(),
		kick: make(chan struct{}, 1),
	}
	s.wg.Add(1)
	go s.pump()
	return s, nil
}

// Stats returns a snapshot of the shipment counters.
func (s *Shipper) Stats() ShipperStats {
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	return ShipperStats{Shipped: s.stats.shipped, Reshipped: s.stats.reshipped, Errors: s.stats.errors, Rebalanced: s.stats.rebalanced}
}

// Self returns the endpoint this shipper ships on behalf of.
func (s *Shipper) Self() string { return s.self }

// current returns the topology the shipper is operating under.
func (s *Shipper) current() (*Ring, uint64) {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.ring, s.epoch
}

// View returns the shipper's adopted membership (epoch 0 until the first
// ClusterUpdate arrives — the static -cluster-peers boot ring).
func (s *Shipper) View() api.Membership {
	ring, epoch := s.current()
	return api.Membership{Epoch: epoch, Members: ring.Endpoints()}
}

// Adopt installs a newer topology. Older or equal epochs are ignored
// (duplicate broadcasts, races with a 409 adoption) unless the shipper is
// still at epoch 0 and the ring differs. Returns whether it was adopted.
// Unlike construction, self need not be a member — a draining shard
// adopts the ring it is leaving so its final shipments target the new
// owners.
func (s *Shipper) Adopt(epoch uint64, ring *Ring) bool {
	if ring == nil {
		return false
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if epoch <= s.epoch {
		return false
	}
	s.ring, s.epoch = ring, epoch
	return true
}

// successor picks the replica for a session key: the first ring node
// for that key that is not this shard. When this shard is the key's
// primary that is the ring successor; when a failover made this shard
// the registrar, state ships back toward the (possibly dead) primary,
// fail-open.
func (s *Shipper) successor(key string) string {
	ring, _ := s.current()
	for _, ep := range ring.LookupN(key, 2) {
		if ep != s.self {
			return ep
		}
	}
	return ""
}

// ShipSession replicates a session record to the session's successor
// shard, synchronously with retries: a 201 from registration implies
// the replica holds the keys, which is what makes shard death cost zero
// re-registration.
func (s *Shipper) ShipSession(id string, rec []byte) error {
	if err := s.shipKeyed(id, [][]byte{rec}); err != nil {
		s.countErr()
		return fmt.Errorf("cluster: replicating session %s: %w", id, err)
	}
	return nil
}

// shipKeyed ships records for one session key to its current successor,
// re-resolving the target when the receiver proves the topology moved
// underneath us (a 409 epoch-stale reply adopts the newer ring).
func (s *Shipper) shipKeyed(key string, recs [][]byte) error {
	var lastErr error
	for round := 0; round < 3; round++ {
		target := s.successor(key)
		if target == "" {
			return nil // single-shard ring: nowhere to replicate
		}
		err := s.shipSync(target, recs)
		if err == nil {
			return nil
		}
		lastErr = err
		if !errors.Is(err, errStaleEpoch) {
			return err
		}
		// shipSync already adopted the newer membership; loop to re-target.
	}
	return lastErr
}

// Ship replicates one record of a session's state asynchronously.
func (s *Shipper) Ship(session string, rec []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.queue = append(s.queue, shipItem{session: session, rec: rec})
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// pump drains the async queue, batching everything queued for one
// target into a single image per shipment.
func (s *Shipper) pump() {
	defer s.wg.Done()
	for range s.kick {
		for {
			s.mu.Lock()
			if len(s.queue) == 0 {
				s.mu.Unlock()
				break
			}
			// Take the longest prefix that resolves to one target under the
			// current ring, so records for one target keep their order.
			target := s.successor(s.queue[0].session)
			var recs [][]byte
			var sessions []string
			rest := s.queue[:0]
			taken := true
			for _, it := range s.queue {
				if taken && s.successor(it.session) == target {
					recs = append(recs, it.rec)
					sessions = append(sessions, it.session)
					continue
				}
				taken = false
				rest = append(rest, it)
			}
			s.queue = append([]shipItem(nil), rest...)
			s.mu.Unlock()
			if target == "" {
				continue // single-member ring: nothing to ship to
			}
			err := s.shipSync(target, recs)
			if errors.Is(err, errStaleEpoch) {
				// The receiver is on a newer ring (now adopted): re-queue the
				// batch at the front so it re-resolves under the new topology
				// without overtaking anything.
				s.mu.Lock()
				requeue := make([]shipItem, 0, len(recs)+len(s.queue))
				for i, rec := range recs {
					requeue = append(requeue, shipItem{session: sessions[i], rec: rec})
				}
				s.queue = append(requeue, s.queue...)
				s.mu.Unlock()
				continue
			}
			if err != nil {
				s.countErr()
				s.log.Warn("replica.ship.failed", slog.String("target", target),
					slog.Int("records", len(recs)), slog.String("err", err.Error()))
			}
		}
	}
}

// Close flushes the async queue and stops the pump. Safe to call once.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// One final kick so the pump drains anything still queued, then stop.
	select {
	case s.kick <- struct{}{}:
	default:
	}
	close(s.kick)
	s.wg.Wait()
}

// errStaleEpoch reports that a receiver on a newer membership epoch
// rejected a shipment; the shipper has already adopted the newer ring
// and the caller should re-resolve targets and re-send.
var errStaleEpoch = errors.New("cluster: shipment epoch stale, membership adopted")

// shipSync POSTs one image of records to target's /v1/replica with
// RetryPolicy backoff, re-shipping the cut tail when the replica
// reports a torn apply. The replica.ship.torn fault point truncates the
// image mid-frame before the POST — the wire shape of a shard dying
// mid-stream — to exercise exactly that path. A 409 epoch-stale reply
// adopts the receiver's membership and returns errStaleEpoch so the
// caller can re-target under the new ring.
func (s *Shipper) shipSync(target string, recs [][]byte) error {
	pol := s.pol
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		image := store.Image(recs)
		if ferr := fault.Inject(fault.ReplicaShipTorn); ferr != nil && len(recs) > 0 {
			// Cut inside the last frame: the replica must apply the intact
			// prefix and report how far it got.
			cut := len(image) - len(recs[len(recs)-1])/2 - 1
			if cut < len(store.ImageHeader()) {
				cut = len(store.ImageHeader())
			}
			image = image[:cut]
		}
		applied, stale, err := s.postImage(target, image)
		if err == nil && stale != nil {
			if mv, ring, perr := ParseMembership(*stale); perr == nil && s.Adopt(mv.Epoch, ring) {
				s.log.Info("replica.ship.adopted", slog.Uint64("epoch", mv.Epoch), slog.String("from", target))
				return errStaleEpoch
			}
			// Could not adopt anything newer — retry as a plain failure so a
			// confused receiver cannot wedge the queue in a re-target loop.
			lastErr = fmt.Errorf("replica apply at %s rejected epoch as stale", target)
			if attempt < pol.MaxAttempts {
				time.Sleep(pol.Backoff(attempt, 0))
			}
			continue
		}
		if err == nil {
			s.stats.mu.Lock()
			s.stats.shipped += uint64(applied)
			s.stats.mu.Unlock()
			if applied >= len(recs) {
				return nil
			}
			// Torn apply: everything before the cut landed; re-ship the rest.
			s.stats.mu.Lock()
			s.stats.reshipped += uint64(len(recs) - applied)
			s.stats.mu.Unlock()
			recs = recs[applied:]
			continue
		}
		lastErr = err
		if attempt < pol.MaxAttempts {
			time.Sleep(pol.Backoff(attempt, 0))
		}
	}
	return lastErr
}

// postImage ships one image. A 409 reply returns the receiver's
// membership body in stale instead of an error.
func (s *Shipper) postImage(target string, image []byte) (applied int, stale *[]byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+api.PathReplica, bytes.NewReader(image))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	_, epoch := s.current()
	req.Header.Set(api.HeaderEpoch, strconv.FormatUint(epoch, 10))
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxControlBody+1))
		return 0, &body, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return 0, nil, fmt.Errorf("replica apply returned %d: %s", resp.StatusCode, body)
	}
	var reply api.ReplicaApply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&reply); err != nil {
		return 0, nil, fmt.Errorf("decoding replica apply reply: %w", err)
	}
	return reply.Applied, nil, nil
}

func (s *Shipper) countErr() {
	s.stats.mu.Lock()
	s.stats.errors++
	s.stats.mu.Unlock()
}

// Rebalance adopts a broadcast ClusterUpdate and re-ships the ownership
// delta from src: every session this shard holds whose owner set gained
// a member that cannot already hold its state gets its records (the
// session record, then its completed results) shipped there. When this
// shard is the one leaving, the delta is everything it holds, shipped to
// every new owner — the handoff that lets it drain without losing a
// session. Shipments are synchronous; the returned count is records
// shipped. Duplicate ships (two holders re-shipping the same session
// after an ejection) are harmless: replica apply is idempotent.
func (s *Shipper) Rebalance(update api.ClusterUpdate, newRing *Ring, src StateSource) (int, error) {
	oldRing, _ := s.current()
	if !s.Adopt(update.Epoch, newRing) {
		// Already on this epoch or newer: the delta was (or is being)
		// shipped by the adoption that got there first.
		return 0, nil
	}
	if src == nil {
		return 0, nil
	}
	leaving := update.Leaves(s.self)

	shipped := 0
	var firstErr error
	src.ForEachSession(func(id string, recs [][]byte) {
		was := oldRing.LookupN(id, 2)
		for _, target := range newRing.LookupN(id, 2) {
			// A leaver must place its state on every new owner; a survivor
			// only ships to owners the old ring could not have populated.
			if target == s.self || (!leaving && slices.Contains(was, target)) {
				continue
			}
			err := s.shipSync(target, recs)
			if errors.Is(err, errStaleEpoch) {
				// An even newer epoch arrived mid-rebalance; its own
				// rebalance owns the delta from here.
				continue
			}
			if err != nil {
				s.countErr()
				s.log.Warn("replica.rebalance.failed", slog.String("target", target),
					slog.String("session", id), slog.String("err", err.Error()))
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			shipped += len(recs)
		}
	})
	s.stats.mu.Lock()
	s.stats.rebalanced += uint64(shipped)
	s.stats.mu.Unlock()
	s.log.Info("replica.rebalance", slog.Uint64("epoch", update.Epoch),
		slog.Int("records", shipped), slog.Bool("leaving", leaving))
	return shipped, firstErr
}
