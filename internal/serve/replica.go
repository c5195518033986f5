package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"antace/internal/ckks"
	"antace/internal/serve/api"
	"antace/internal/store"
)

// Replicator ships this shard's durable state to a successor shard as it
// is produced: the session record at registration and the complete
// record of every settled idempotent job. Serve owns the record format
// and hands over encoded records — the bytes its own journal holds — so
// the implementation (internal/cluster hashes the session onto a ring
// and POSTs ACELOG1 images to the peer) moves opaque bytes. A shard
// without cluster wiring keeps the exact single-node behavior.
//
// ShipSession is synchronous: registration does not answer 201 until
// the replica holds the keys (or shipping conclusively failed, which is
// fail-open and counted). Ship is asynchronous; a lost completion only
// costs the replica a deterministic re-execution on failover, never a
// wrong answer. Nothing ships a forget.
type Replicator interface {
	ShipSession(id string, rec []byte) error
	Ship(session string, rec []byte)
}

// handleReplicaApply ingests one replication shipment: the body is an
// ACELOG1 log image of session and complete records. The store layer's
// CRC framing is the integrity check — a corrupt frame rejects the
// shipment with 400, while a torn tail (the shipper died or the
// replica.ship.torn fault cut the stream mid-frame) applies the intact
// prefix and reports how many records landed so the shipper re-sends
// only the remainder.
func (s *Server) handleReplicaApply(w http.ResponseWriter, r *http.Request) {
	// Epoch gate: a shipment stamped with an older membership epoch comes
	// from a shard that has not adopted the current ring — its placement
	// may be wrong. Answer 409 with this shard's membership so the
	// shipper adopts it and re-targets; shipments without the header (or
	// from an equal/newer epoch) apply normally.
	if eh := r.Header.Get(api.HeaderEpoch); eh != "" {
		if view, ok := s.clusterMembership(); ok {
			if shipEpoch, perr := strconv.ParseUint(eh, 10, 64); perr == nil && shipEpoch < view.Epoch {
				api.WriteJSON(w, http.StatusConflict, view)
				return
			}
		}
	}
	body, err := readBody(w, r, s.cfg.SessionBudget+maxCipherBytes)
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "replica image: %v", err)
		return
	}
	records, _, rerr := store.Replay(body)
	torn := false
	switch {
	case rerr == nil:
	case errors.Is(rerr, store.ErrTorn):
		torn = true
	default:
		api.WriteError(w, http.StatusBadRequest, "replica image: %v", rerr)
		return
	}
	applied := 0
	for _, raw := range records {
		if err := s.applyReplicaRecord(raw); err != nil {
			// The frame passed its CRC but does not apply: a protocol
			// mismatch, not wire damage. Report what landed and refuse the
			// rest — re-shipping the same bytes cannot help.
			api.WriteError(w, http.StatusBadRequest, "replica record %d: %v", applied, err)
			return
		}
		applied++
	}
	api.WriteJSON(w, http.StatusOK, api.ReplicaApply{Applied: applied, Torn: torn})
}

// applyReplicaRecord decodes one replicated record and lands it in the
// same stores a local request would use, so failover needs no special
// read path: a replicated session serves /v1/infer via the ordinary
// session lookup, and a replicated completion replays via the ordinary
// idempotency cache, bit for bit, and enters this shard's journal as
// the bytes it arrived as. Only session and complete records replicate:
// accepts and forgets are one shard's own journal business, and a
// forget crossing another shard's settled result would destroy it.
func (s *Server) applyReplicaRecord(raw []byte) error {
	rec, err := decodeRecord(raw)
	if err != nil {
		return err
	}
	switch rec.kind {
	case recSession:
		if !api.ValidID(rec.key) {
			return errInvalidReplicaSession
		}
		keys := &ckks.EvaluationKeySet{}
		if err := keys.UnmarshalBinary(rec.body); err != nil {
			return err
		}
		if err := s.sh.Check(keys); err != nil {
			return err
		}
		if _, err := s.sessions.putWithID(rec.key, keys, int64(len(rec.body))); err != nil {
			return err
		}
		if s.dur != nil {
			// Fail open like local registration: a disk error leaves the
			// replica RAM-only, counted in storeErrs.
			_ = s.dur.saveSession(rec.key, rec.body)
		}
		s.stats.replicaSessions.Add(1)
		s.log.Info("replica.session", slog.String("session", rec.key),
			slog.Int("bytes", len(rec.body)))
	case recComplete:
		s.idem.restore(rec)
		if s.dur != nil {
			s.dur.complete(rec)
		}
		s.stats.replicaResults.Add(1)
	default:
		return fmt.Errorf("serve: record kind %d does not replicate", rec.kind)
	}
	return nil
}

var errInvalidReplicaSession = errors.New("serve: replicated session id is not 32 lowercase hex")

// handleReadyz is the routing signal, distinct from the liveness probe:
// a shard that is draining or still re-executing journaled jobs after a
// crash is alive (healthz says so) but must not receive traffic yet, so
// readiness answers 503 with a Retry-After hint until both clear.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.handingOff.Load() {
		setRetryAfter(w)
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Readyz{Status: "handing-off"})
		return
	}
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		setRetryAfter(w)
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Readyz{Status: "draining"})
		return
	}
	if pending := s.recovering.Load(); pending > 0 {
		setRetryAfter(w)
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Readyz{Status: "recovering", PendingRecovery: pending})
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Readyz{Status: "ready"})
}
