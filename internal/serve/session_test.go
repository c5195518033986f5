package serve

import (
	"testing"

	"antace/internal/ckks"
	"antace/internal/serve/api"
)

func put(t *testing.T, c *sessionCache, size int64) *session {
	t.Helper()
	s, err := c.put(&ckks.EvaluationKeySet{}, size)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionCacheLRUEviction(t *testing.T) {
	c := newSessionCache(100)
	a := put(t, c, 40)
	b := put(t, c, 40)

	// Touch a so b becomes the eviction victim.
	if _, ok := c.get(a.id); !ok {
		t.Fatal("a vanished")
	}
	d := put(t, c, 40) // 120 > 100: evicts b (LRU)
	if _, ok := c.get(b.id); ok {
		t.Fatal("expected b to be evicted")
	}
	if _, ok := c.get(a.id); !ok {
		t.Fatal("a (recently used) must survive")
	}
	if _, ok := c.get(d.id); !ok {
		t.Fatal("d (just inserted) must survive")
	}

	count, used, hits, misses, evictions := c.snapshot()
	if count != 2 || used != 80 {
		t.Fatalf("count %d used %d, want 2/80", count, used)
	}
	if hits != 3 || misses != 1 || evictions != 1 {
		t.Fatalf("hits %d misses %d evictions %d, want 3/1/1", hits, misses, evictions)
	}
}

func TestSessionCacheRejectsOversized(t *testing.T) {
	c := newSessionCache(100)
	if _, err := c.put(&ckks.EvaluationKeySet{}, 101); err == nil {
		t.Fatal("a bundle above the whole budget must be refused")
	}
	// An exact-fit bundle evicts everything else but is accepted.
	put(t, c, 60)
	big := put(t, c, 100)
	count, used, _, _, _ := c.snapshot()
	if count != 1 || used != 100 {
		t.Fatalf("count %d used %d after exact-fit insert", count, used)
	}
	if _, ok := c.get(big.id); !ok {
		t.Fatal("exact-fit session missing")
	}
}

func TestSessionCacheDrop(t *testing.T) {
	c := newSessionCache(100)
	s := put(t, c, 10)
	if !c.drop(s.id) {
		t.Fatal("drop failed")
	}
	if c.drop(s.id) {
		t.Fatal("double drop succeeded")
	}
	if _, used, _, _, _ := c.snapshot(); used != 0 {
		t.Fatalf("bytes leaked after drop: %d", used)
	}
}

func TestSessionIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id, err := api.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if len(id) != 32 || seen[id] {
			t.Fatalf("bad or duplicate id %q", id)
		}
		seen[id] = true
	}
}
