package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i*2654435761)
	}
	return keys
}

// TestRingDeterministic proves placement is a pure function of the
// member set: two independently built rings — one from a shuffled list,
// as a restarted process would see it — agree on every key, primary and
// replica alike. This is the property that lets the router and every
// shard compute placements without talking to each other.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"http://s1:1", "http://s2:2", "http://s3:3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://s3:3", "http://s1:1", "http://s2:2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(10000) {
		pa, pb := a.LookupN(key, 2), b.LookupN(key, 2)
		if pa[0] != pb[0] || pa[1] != pb[1] {
			t.Fatalf("key %s: ring A places %v, ring B places %v", key, pa, pb)
		}
		if pa[0] == pa[1] {
			t.Fatalf("key %s: replica equals primary %q", key, pa[0])
		}
	}
}

// TestRingMinimalMovement checks the consistent-hashing contract: when
// a shard joins (or symmetrically, leaves), only the keys that move to
// (or from) that shard remap — everything else stays put. The accepted
// ceiling is 2/N of keys, twice the ideal 1/N to absorb vnode placement
// variance.
func TestRingMinimalMovement(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		eps := make([]string, n)
		for i := range eps {
			eps[i] = fmt.Sprintf("http://shard-%d:80", i)
		}
		before, err := NewRing(eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		joined := fmt.Sprintf("http://shard-%d:80", n)
		after, err := NewRing(append(append([]string(nil), eps...), joined), 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := testKeys(20000)
		moved := 0
		for _, key := range keys {
			pb, pa := before.Lookup(key), after.Lookup(key)
			if pb == pa {
				continue
			}
			if pa != joined {
				t.Fatalf("%d shards: key %s moved %s -> %s, neither the new shard", n, key, pb, pa)
			}
			moved++
		}
		frac := float64(moved) / float64(len(keys))
		limit := 2.0 / float64(n+1)
		if frac > limit {
			t.Errorf("%d->%d shards: %.3f of keys moved, limit %.3f", n, n+1, frac, limit)
		}
		if moved == 0 {
			t.Errorf("%d->%d shards: nothing moved to the new shard", n, n+1)
		}
	}
}

// TestRingBalance makes placement quality a property of the ring rather
// than of one member list: over a thousand random loopback layouts of 2,
// 3 and 5 members on ephemeral ports, the largest share of the hash space
// any member owns stays within 1.5× the mean.
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 22))
	for _, members := range []int{2, 3, 5} {
		worst := 0.0
		for layout := 0; layout < 1000; layout++ {
			ports := map[int]bool{}
			var eps []string
			for len(eps) < members {
				if p := 32768 + rng.IntN(28000); !ports[p] {
					ports[p] = true
					eps = append(eps, fmt.Sprintf("http://127.0.0.1:%d", p))
				}
			}
			r, err := NewRing(eps, 0)
			if err != nil {
				t.Fatal(err)
			}
			if skew := arcSkew(r); skew > worst {
				worst = skew
			}
			if worst > 1.5 {
				t.Fatalf("%v: a member owns %.2f× the mean arc", eps, worst)
			}
		}
		t.Logf("%d members: worst max/mean arc ownership %.2f", members, worst)
	}
}

// arcSkew returns the largest hash-space share any member of r owns over
// the mean share: a point owns the arc from its predecessor up to itself,
// the keys Lookup sends to it.
func arcSkew(r *Ring) float64 {
	owned := make([]float64, r.Len())
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		owned[p.ep] += float64(p.hash - prev) // wraps modulo 2^64 for the first point
		prev = p.hash
	}
	most := 0.0
	for _, o := range owned {
		most = math.Max(most, o)
	}
	return most / (math.Exp2(64) / float64(r.Len()))
}

func TestRingRejectsHostileLists(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{""},
		{"  "},
		{"http://a:1", "http://a:1"},
		{"http://a:1", " http://a:1 "}, // duplicate after trimming
		{"http://a:1,http://b:1"},      // unsplit list
		{"http://a b:1"},
		{"http://a:1\nhttp://b:1"},
	}
	for _, eps := range cases {
		if _, err := NewRing(eps, 0); err == nil {
			t.Errorf("NewRing(%q) accepted a hostile list", eps)
		}
	}
	huge := make([]string, maxEndpoints+1)
	for i := range huge {
		huge[i] = fmt.Sprintf("http://h%d:1", i)
	}
	if _, err := NewRing(huge, 0); err == nil {
		t.Error("NewRing accepted an oversized list")
	}
}

func TestRingLookupN(t *testing.T) {
	r, err := NewRing([]string{"http://a:1", "http://b:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.LookupN("k", 5); len(got) != 2 {
		t.Fatalf("LookupN clamped to %d, want 2", len(got))
	}
	if got := r.LookupN("k", 0); got != nil {
		t.Fatalf("LookupN(0) = %v, want nil", got)
	}
	single, err := NewRing([]string{"http://solo:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := single.Replica("k"); rep != "" {
		t.Fatalf("single-member replica = %q, want empty", rep)
	}
}
