package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"antace/internal/serve/api"
)

// Membership is the cluster topology state machine the router runs: an
// epoch counter plus the ring it was committed with. Transitions are
// two-phase — propose the next ring, synchronize it to every member
// (broadcast + re-replication of the ownership delta), and only then
// commit the epoch bump. A failed synchronization commits nothing, so
// readers never observe a ring the shards have not adopted.
//
// Transitions serialize on transMu; Current/View are cheap concurrent
// reads. Epochs increment by exactly one per committed transition.
type Membership struct {
	transMu sync.Mutex // serializes whole transitions, sync phase included

	mu    sync.RWMutex // guards epoch+ring for readers
	epoch uint64
	ring  *Ring
}

// NewMembership builds the epoch-0 membership over the initial member
// list (the router's -shards flag).
func NewMembership(members []string) (*Membership, error) {
	ring, err := NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	return &Membership{ring: ring}, nil
}

// Current returns the committed epoch and ring. The ring is immutable;
// callers may hold it across requests.
func (m *Membership) Current() (uint64, *Ring) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch, m.ring
}

// View returns the committed membership as its wire DTO.
func (m *Membership) View() api.Membership {
	epoch, ring := m.Current()
	return api.Membership{Epoch: epoch, Members: ring.Endpoints()}
}

// SyncFunc pushes a proposed update to the cluster and blocks until every
// member has adopted it and re-replicated its ownership delta. A non-nil
// error aborts the transition without committing.
type SyncFunc func(update api.ClusterUpdate) error

// ErrNoChange is returned by Join/Leave when the requested endpoint is
// already in / already absent from the ring; the membership is unchanged
// and no epoch was spent.
var ErrNoChange = errors.New("cluster: membership unchanged")

// Join adds endpoint to the ring. It validates the endpoint, synchronizes
// the proposed ring via sync, and commits epoch+1 on success. Joining an
// existing member returns ErrNoChange.
func (m *Membership) Join(endpoint string, sync SyncFunc) (api.Membership, error) {
	return m.transition(func(members []string) ([]string, string, error) {
		for _, ep := range members {
			if ep == endpoint {
				return nil, "", ErrNoChange
			}
		}
		return append(members, endpoint), "", nil
	}, sync)
}

// Leave removes endpoint from the ring. The proposed update names the
// endpoint in Leaving so the departing shard knows to hand off and drain;
// force (an ejection) clears Leaving — the dead member is not consulted
// and the survivors re-replicate its orphaned state. Removing the last
// member or a non-member is an error.
func (m *Membership) Leave(endpoint string, force bool, sync SyncFunc) (api.Membership, error) {
	return m.transition(func(members []string) ([]string, string, error) {
		next := members[:0]
		found := false
		for _, ep := range members {
			if ep == endpoint {
				found = true
				continue
			}
			next = append(next, ep)
		}
		if !found {
			return nil, "", ErrNoChange
		}
		if len(next) == 0 {
			return nil, "", errors.New("cluster: refusing to remove the last member")
		}
		leaving := endpoint
		if force {
			leaving = ""
		}
		return next, leaving, nil
	}, sync)
}

func (m *Membership) transition(mutate func([]string) ([]string, string, error), sync SyncFunc) (api.Membership, error) {
	m.transMu.Lock()
	defer m.transMu.Unlock()

	epoch, ring := m.Current()
	next, leaving, err := mutate(ring.Endpoints())
	if err != nil {
		if errors.Is(err, ErrNoChange) {
			return api.Membership{Epoch: epoch, Members: ring.Endpoints()}, err
		}
		return api.Membership{}, err
	}
	nextRing, err := NewRing(next, 0)
	if err != nil {
		return api.Membership{}, fmt.Errorf("cluster: proposed membership invalid: %w", err)
	}
	update := api.ClusterUpdate{Epoch: epoch + 1, Members: nextRing.Endpoints(), Leaving: leaving}
	if sync != nil {
		if err := sync(update); err != nil {
			return api.Membership{}, fmt.Errorf("cluster: membership sync failed, epoch %d not committed: %w", update.Epoch, err)
		}
	}
	m.mu.Lock()
	m.epoch = update.Epoch
	m.ring = nextRing
	m.mu.Unlock()
	return api.Membership{Epoch: update.Epoch, Members: nextRing.Endpoints()}, nil
}

// Wire-message parsing. All cluster control messages are small JSON
// bodies; these helpers bound, strictly decode and validate them so the
// handlers (and the fuzz target) share one hardened path.

// maxControlBody bounds cluster control-message bodies; the largest
// legitimate message is a ClusterUpdate listing maxEndpoints endpoints.
const maxControlBody = 256 << 10

func decodeStrict(data []byte, v any) error {
	if len(data) > maxControlBody {
		return fmt.Errorf("cluster: control message too large (%d bytes)", len(data))
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("cluster: bad control message: %w", err)
	}
	if dec.More() {
		return errors.New("cluster: trailing data after control message")
	}
	return nil
}

// ParseUpdate decodes and validates a ClusterUpdate body: a nonzero
// epoch, a member list that builds a valid ring, and a Leaving endpoint
// (when present) that is syntactically valid. Returns the update and the
// ring it describes.
func ParseUpdate(data []byte) (api.ClusterUpdate, *Ring, error) {
	var u api.ClusterUpdate
	if err := decodeStrict(data, &u); err != nil {
		return api.ClusterUpdate{}, nil, err
	}
	if u.Epoch == 0 {
		return api.ClusterUpdate{}, nil, errors.New("cluster: update epoch must be nonzero")
	}
	ring, err := NewRing(u.Members, 0)
	if err != nil {
		return api.ClusterUpdate{}, nil, err
	}
	if u.Leaving != "" {
		if err := validateEndpoint(u.Leaving); err != nil {
			return api.ClusterUpdate{}, nil, err
		}
	}
	return u, ring, nil
}

// ParseMembership decodes and validates a Membership body (the 409 reply
// of an epoch-stale shipment, or GET /v1/cluster/membership).
func ParseMembership(data []byte) (api.Membership, *Ring, error) {
	var mv api.Membership
	if err := decodeStrict(data, &mv); err != nil {
		return api.Membership{}, nil, err
	}
	ring, err := NewRing(mv.Members, 0)
	if err != nil {
		return api.Membership{}, nil, err
	}
	return mv, ring, nil
}

// ParseJoin decodes and validates a JoinRequest body.
func ParseJoin(data []byte) (api.JoinRequest, error) {
	var jr api.JoinRequest
	if err := decodeStrict(data, &jr); err != nil {
		return api.JoinRequest{}, err
	}
	if err := validateEndpoint(jr.Endpoint); err != nil {
		return api.JoinRequest{}, err
	}
	return jr, nil
}

// ParseLeave decodes and validates a LeaveRequest body.
func ParseLeave(data []byte) (api.LeaveRequest, error) {
	var lr api.LeaveRequest
	if err := decodeStrict(data, &lr); err != nil {
		return api.LeaveRequest{}, err
	}
	if err := validateEndpoint(lr.Endpoint); err != nil {
		return api.LeaveRequest{}, err
	}
	return lr, nil
}

// validateEndpoint applies the same syntactic rules NewRing enforces per
// endpoint, so a value accepted here can always be placed on a ring.
func validateEndpoint(ep string) error {
	if ep == "" || strings.TrimSpace(ep) != ep || strings.ContainsAny(ep, ", \t\r\n") {
		return fmt.Errorf("cluster: invalid endpoint %q", ep)
	}
	return nil
}

// StateSource enumerates the replicable state a shard holds, for delta
// re-replication on a membership change: per session, the encoded
// records that re-create it on another shard, its session record first.
// Implemented by serve.Server, which owns the record format; the
// shipper moves the records as opaque bytes.
type StateSource interface {
	ForEachSession(fn func(id string, recs [][]byte))
}
