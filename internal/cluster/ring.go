// Package cluster turns N independent aced daemons into one sharded
// serving system: a deterministic consistent-hash ring assigns every
// session to a primary shard and a successor replica, a Shipper
// replicates session key bundles and idempotency-journal records to
// that successor as CRC-framed ACELOG1 images, and a Router fronts the
// shards — routing by session id, failing over to the replica when the
// primary dies, and aggregating /metrics, /v1/statz and /v1/profilez
// cluster-wide. The design goal is the ROADMAP's: a backend death costs
// reconnect latency, never client re-registration.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// DefaultVnodes is the virtual-node count per endpoint. 128 keeps the
// worst-case load skew of a 3-shard ring under a few percent while the
// ring stays small enough to rebuild on every membership change.
const DefaultVnodes = 128

// maxEndpoints bounds ring construction; a hostile endpoint list must
// fail fast, not allocate vnodes forever.
const maxEndpoints = 1024

// Ring is an immutable consistent-hash ring over backend endpoints.
// Construction is a pure function of the (order-insensitive) endpoint
// set and the vnode count, so every process handed the same member list
// — the router, each shard, a test — computes identical placements
// without any coordination service.
type Ring struct {
	endpoints []string // sorted, deduplicated
	points    []ringPoint
}

type ringPoint struct {
	hash uint64
	ep   int // index into endpoints
}

// NewRing validates and builds a ring. Endpoints are trimmed; empty
// entries, embedded whitespace or commas (the list separators on every
// flag that feeds this), duplicates after trimming, and absurd list
// sizes are rejected rather than silently folded, because two processes
// that "heal" a malformed list differently would route the same session
// to different shards. vnodes <= 0 selects DefaultVnodes.
func NewRing(endpoints []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one endpoint")
	}
	if len(endpoints) > maxEndpoints {
		return nil, fmt.Errorf("cluster: %d endpoints exceeds the %d limit", len(endpoints), maxEndpoints)
	}
	seen := make(map[string]bool, len(endpoints))
	clean := make([]string, 0, len(endpoints))
	for _, raw := range endpoints {
		ep := strings.TrimSpace(raw)
		if ep == "" {
			return nil, fmt.Errorf("cluster: empty endpoint in %q", strings.Join(endpoints, ","))
		}
		if strings.ContainsAny(ep, " \t\n\r,") {
			return nil, fmt.Errorf("cluster: endpoint %q contains whitespace or a comma", ep)
		}
		if seen[ep] {
			return nil, fmt.Errorf("cluster: endpoint %q listed twice", ep)
		}
		seen[ep] = true
		clean = append(clean, ep)
	}
	// Sort members before placing vnodes so the ring is identical no
	// matter what order the list arrived in.
	sort.Strings(clean)
	r := &Ring{endpoints: clean}
	r.points = make([]ringPoint, 0, len(clean)*vnodes)
	for i, ep := range clean {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", ep, v)), ep: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically rare, but the fuzzer will find crafted
		// ones) break deterministically by endpoint index.
		return r.points[a].ep < r.points[b].ep
	})
	return r, nil
}

// ringHash places vnode points and keys alike: FNV-1a 64, stable across
// processes, architectures and Go releases — placement must be a
// protocol, not an implementation detail — followed by the splitmix64
// finalizer. FNV-1a alone leaves strings that differ only in their last
// bytes (a port, a vnode suffix) bunched on the ring: over random
// loopback layouts on ephemeral ports, one in five 2-member rings and
// three in four 5-member rings gave a member more than 1.5× the mean arc,
// the worst 3.2×; with the finalizer none did (TestRingBalance).
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Endpoints returns the ring members, sorted.
func (r *Ring) Endpoints() []string { return append([]string(nil), r.endpoints...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.endpoints) }

// Lookup returns the primary endpoint for key: the owner of the first
// ring point at or after the key's hash, wrapping at the top.
func (r *Ring) Lookup(key string) string { return r.LookupN(key, 1)[0] }

// LookupN walks the ring clockwise from the key's hash and returns the
// first n distinct endpoints: index 0 is the primary, index 1 the
// successor that replicas for this key live on, and so forth. n is
// clamped to the member count.
func (r *Ring) LookupN(key string, n int) []string {
	if n > len(r.endpoints) {
		n = len(r.endpoints)
	}
	if n <= 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.ep] {
			continue
		}
		taken[p.ep] = true
		out = append(out, r.endpoints[p.ep])
	}
	return out
}

// Replica returns the successor shard holding key's replicated state,
// or "" on a single-member ring (nowhere to replicate to).
func (r *Ring) Replica(key string) string {
	n := r.LookupN(key, 2)
	if len(n) < 2 {
		return ""
	}
	return n[1]
}
