package serve

import (
	"errors"
	"log/slog"
	"net/http"
	"strconv"

	"antace/internal/ckks"
	"antace/internal/cluster"
	"antace/internal/serve/api"
	"antace/internal/store"
)

// Replicator receives this shard's durable state as it is produced, to
// ship to a successor shard: the session key bundle at registration and
// every idempotency-journal settlement afterwards. The serve layer only
// calls it — internal/cluster provides the implementation that hashes
// the session onto a ring and POSTs ACELOG1 images to the peer — so a
// shard without cluster wiring keeps the exact single-node behavior.
//
// ShipSession is synchronous: registration does not answer 201 until
// the replica holds the keys (or shipping conclusively failed, which is
// fail-open and counted). ShipComplete and ShipForget are asynchronous;
// a lost completion only costs the replica a deterministic
// re-execution on failover, never a wrong answer.
type Replicator interface {
	ShipSession(id string, bundle []byte) error
	ShipComplete(key string, lane, stride int, body []byte)
	ShipForget(key string)
}

// handleReplicaApply ingests one replication shipment: the body is an
// ACELOG1 log image of cluster replication records. The store layer's
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
		rec, err := cluster.DecodeRecord(raw)
		if err != nil {
			// The frame passed its CRC but does not parse: a protocol
			// mismatch, not wire damage. Report what landed and refuse the
			// rest — re-shipping the same bytes cannot help.
			api.WriteError(w, http.StatusBadRequest, "replica record %d: %v", applied, err)
			return
		}
		if err := s.applyReplicaRecord(rec); err != nil {
			api.WriteError(w, http.StatusBadRequest, "replica record %d: %v", applied, err)
			return
		}
		applied++
	}
	api.WriteJSON(w, http.StatusOK, api.ReplicaApply{Applied: applied, Torn: torn})
}

// applyReplicaRecord lands one replicated record in the same stores a
// local request would use, so failover needs no special read path: a
// replicated session serves /v1/infer via the ordinary session lookup
// and a replicated completion replays via the ordinary idempotency
// cache, bit for bit.
func (s *Server) applyReplicaRecord(rec cluster.Record) error {
	switch rec.Kind {
	case cluster.RecSession:
		if !validSessionID(rec.SessionID) {
			return errInvalidReplicaSession
		}
		keys := &ckks.EvaluationKeySet{}
		if err := keys.UnmarshalBinary(rec.Bundle); err != nil {
			return err
		}
		if err := s.validateKeys(keys); err != nil {
			return err
		}
		if _, err := s.sessions.putWithID(rec.SessionID, keys, int64(len(rec.Bundle))); err != nil {
			return err
		}
		if s.dur != nil {
			// Fail open like local registration: a disk error leaves the
			// replica RAM-only, counted in storeErrs.
			_ = s.dur.saveSession(rec.SessionID, rec.Bundle)
		}
		s.stats.replicaSessions.Add(1)
		s.log.Info("replica.session", slog.String("session", rec.SessionID),
			slog.Int("bytes", len(rec.Bundle)))
	case cluster.RecComplete:
		s.idem.restore(rec.Key, rec.Body, rec.Lane, rec.Stride)
		if s.dur != nil {
			s.dur.complete(rec.Key, rec.Body, rec.Lane, rec.Stride)
		}
		s.stats.replicaResults.Add(1)
	case cluster.RecForget:
		s.idem.forgetCompleted(rec.Key)
		if s.dur != nil {
			s.dur.forget(rec.Key)
		}
	default:
		return errUnknownReplicaRecord
	}
	return nil
}

var (
	errInvalidReplicaSession = errors.New("serve: replicated session id is not 32 lowercase hex")
	errUnknownReplicaRecord  = errors.New("serve: unknown replication record kind")
)

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
