package serve

import (
	"log/slog"
	"net/http"
	"strconv"

	"antace/internal/cluster"
	"antace/internal/serve/api"
)

// clusterView is the slice of the cluster Shipper the serve layer needs
// for live membership: the adopted epoch/ring, the shard's own endpoint,
// and delta re-replication on a topology change. Kept as an interface so
// serve depends on the Replicator contract, not the concrete Shipper —
// a RAM-only or test Replicator simply doesn't implement it and the
// cluster endpoints answer 404.
type clusterView interface {
	Self() string
	View() api.Membership
	Rebalance(update api.ClusterUpdate, ring *cluster.Ring, src cluster.StateSource) (int, error)
}

// clusterMembership returns the shard's adopted membership view when the
// configured Replicator is cluster-aware.
func (s *Server) clusterMembership() (api.Membership, bool) {
	cv, ok := s.repl.(clusterView)
	if !ok {
		return api.Membership{}, false
	}
	return cv.View(), true
}

// stampEpoch adds the adopted membership epoch to a response, so clients
// holding a stale endpoint list can notice the topology moved and
// re-fetch /v1/cluster/membership.
func (s *Server) stampEpoch(w http.ResponseWriter) {
	if view, ok := s.clusterMembership(); ok {
		w.Header().Set(api.HeaderEpoch, strconv.FormatUint(view.Epoch, 10))
	}
}

// handleClusterMembership serves the shard's last-adopted membership:
// epoch 0 with the static boot peers until the first router broadcast.
func (s *Server) handleClusterMembership(w http.ResponseWriter, r *http.Request) {
	view, ok := s.clusterMembership()
	if !ok {
		api.WriteError(w, http.StatusNotFound, "shard is not cluster-wired")
		return
	}
	api.WriteJSON(w, http.StatusOK, view)
}

// handleClusterUpdate ingests a router membership broadcast. Ordering is
// the contract that makes handoff lossless:
//
//  1. A shard that finds itself removed from Members flips handing-off
//     first — readiness answers 503 before any state moves, so the
//     router stops preferring it while it still answers in-flight work.
//  2. The shipper adopts the new ring, so every completion produced from
//     here on ships to the post-change owners.
//  3. Rebalance synchronously re-ships the ownership delta (everything
//     the shard holds, when leaving) over the ordinary /v1/replica path.
//  4. Only then is the update acknowledged — the router commits the
//     epoch knowing the transfer settled.
//  5. A leaver fires OnLeave after acknowledging: the daemon drains
//     in-flight requests (their completions ship through the already-
//     adopted new ring) and exits.
func (s *Server) handleClusterUpdate(w http.ResponseWriter, r *http.Request) {
	cv, ok := s.repl.(clusterView)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "shard is not cluster-wired")
		return
	}
	body, err := readBody(w, r, 1<<20)
	if err != nil {
		api.WriteError(w, http.StatusRequestEntityTooLarge, "cluster update: %v", err)
		return
	}
	update, ring, err := cluster.ParseUpdate(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "cluster update: %v", err)
		return
	}
	cur := cv.View()
	if update.Epoch <= cur.Epoch {
		// Duplicate or stale broadcast: the adopted epoch already covers
		// it. Idempotent ACK so a router retry converges.
		api.WriteJSON(w, http.StatusOK, api.ClusterUpdateReply{Epoch: cur.Epoch})
		return
	}
	leaving := update.Leaves(cv.Self())
	if leaving {
		s.handingOff.Store(true)
	}
	reshipped, err := cv.Rebalance(update, ring, s)
	if err != nil {
		// The delta did not fully land. For a leaver this is fatal to the
		// handoff — refuse the ACK so the router aborts the transition
		// rather than commit an epoch that would strand sessions.
		if leaving {
			s.handingOff.Store(false)
			api.WriteError(w, http.StatusInternalServerError, "cluster handoff failed: %v", err)
			return
		}
		// A survivor's partial delta is fail-open like all replication:
		// the records are counted as ship errors and failover still has
		// the pre-change owners.
		s.log.Warn("cluster.rebalance.partial", slog.Uint64("epoch", update.Epoch),
			slog.String("err", err.Error()))
	}
	s.log.Info("cluster.update", slog.Uint64("epoch", update.Epoch),
		slog.Int("members", len(update.Members)), slog.Bool("leaving", leaving),
		slog.Int("reshipped", reshipped))
	api.WriteJSON(w, http.StatusOK, api.ClusterUpdateReply{Epoch: update.Epoch, Reshipped: reshipped})
	if leaving && s.cfg.OnLeave != nil {
		s.leaveOnce.Do(func() { go s.cfg.OnLeave() })
	}
}

// ForEachSession yields every session this shard holds as the records
// that re-create it elsewhere: its session record, then the complete
// records of its retained results. Bundles come from the disk tier
// first (raw spilled bytes — includes sessions evicted from RAM), then
// RAM-only sessions re-marshaled from their immutable key sets. The
// cluster.StateSource contract.
func (s *Server) ForEachSession(fn func(id string, recs [][]byte)) {
	results := map[string][][]byte{}
	for _, res := range s.idem.completed() {
		id := idemSession(res.key)
		results[id] = append(results[id], res.raw)
	}
	yield := func(id string, bundle []byte) {
		rec, err := record{kind: recSession, key: id, body: bundle}.encode()
		if err != nil {
			s.log.Warn("cluster.rebalance.encode", slog.String("session", id), slog.String("err", err.Error()))
			return
		}
		fn(id, append([][]byte{rec.raw}, results[id]...))
	}
	seen := map[string]bool{}
	if s.dur != nil {
		for _, id := range s.dur.sessionIDs() {
			raw, err := s.dur.loadSession(id)
			if err != nil {
				s.log.Warn("cluster.rebalance.load", slog.String("session", id), slog.String("err", err.Error()))
				continue
			}
			seen[id] = true
			yield(id, raw)
		}
	}
	for _, sess := range s.sessions.all() {
		if seen[sess.id] {
			continue
		}
		raw, err := sess.keys.MarshalBinary()
		if err != nil {
			s.log.Warn("cluster.rebalance.marshal", slog.String("session", sess.id), slog.String("err", err.Error()))
			continue
		}
		yield(sess.id, raw)
	}
}
