package serve

import (
	"container/list"
	"sync"
)

// idemEntry tracks one idempotency key's execution: in flight until done
// closes, then either a retained success (ok, body set — the exact bytes
// the first execution produced) or a failure (removed from the cache so
// a retry re-executes).
type idemEntry struct {
	key  string
	done chan struct{}
	ok   bool
	body []byte
	// lane/stride record where in the stored ciphertext the caller's
	// slots live when the execution rode a shared batch (stride <= 1
	// for solo results); replays re-emit them as response headers.
	lane   int
	stride int
	elem   *list.Element // non-nil once retained in the completed LRU
	// restored stashes a replicated completion that arrived while a local
	// attempt under the same key was still in flight (a hedged duplicate
	// racing the original's shipped settlement). If the local attempt is
	// abandoned or fails, the stash is promoted instead of forgetting the
	// key — the replicated bytes are the authoritative result.
	restored *completedResult
}

// idemCache makes /v1/infer retries safe: the first request bearing a
// key owns the execution; concurrent duplicates attach to it and
// replay its stored bytes, so a client that lost the response to a
// connection reset can retry without the program running twice. Only
// successes are retained (bounded LRU) — a failed execution removes its
// entry, because the correct response to "it broke" is a fresh attempt,
// not a replayed error.
type idemCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // completed entries, front = most recent
	byKey    map[string]*idemEntry
}

func newIdemCache(capacity int) *idemCache {
	return &idemCache{capacity: capacity, order: list.New(), byKey: map[string]*idemEntry{}}
}

// begin claims the key. The first caller gets owner=true and must
// eventually call complete; later callers get the same entry with
// owner=false and wait on entry.done (which may already be closed when
// the execution finished earlier).
func (c *idemCache) begin(key string) (entry *idemEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		return e, false
	}
	e := &idemEntry{key: key, done: make(chan struct{})}
	c.byKey[key] = e
	return e, true
}

// complete finalizes an owned entry. Success retains the body under the
// LRU cap; failure removes the key so the next attempt re-executes.
// Followers blocked on entry.done observe the final state afterwards.
func (c *idemCache) complete(e *idemEntry, ok bool, body []byte, lane, stride int) {
	c.mu.Lock()
	if !ok && e.restored != nil {
		// The local attempt died, but a replicated completion for this key
		// landed while it ran: promote it rather than forgetting the key,
		// or a hedge loser's cancellation would destroy the winner's
		// settled result.
		ok, body, lane, stride = true, e.restored.body, e.restored.lane, e.restored.stride
	}
	e.restored = nil
	e.ok, e.body = ok, body
	e.lane, e.stride = lane, stride
	if ok {
		e.elem = c.order.PushFront(e)
		for c.order.Len() > c.capacity {
			victim := c.order.Remove(c.order.Back()).(*idemEntry)
			delete(c.byKey, victim.key)
		}
	} else {
		delete(c.byKey, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// restore seeds a retained success from the durable journal during
// crash recovery: the entry is born completed (done already closed), so
// a post-restart retry under the same key replays the stored bytes
// exactly as if the daemon had never died. Keys already present — e.g.
// claimed by an in-flight recovered job — are left alone.
func (c *idemCache) restore(key string, body []byte, lane, stride int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		if e.elem == nil {
			// In flight here, already settled elsewhere (a hedged duplicate
			// raced the original): stash the authoritative bytes so an
			// abandoned local attempt promotes them instead of losing them.
			e.restored = &completedResult{key: key, lane: lane, stride: stride, body: body}
		}
		return
	}
	e := &idemEntry{key: key, done: make(chan struct{}), ok: true, body: body, lane: lane, stride: stride}
	close(e.done)
	e.elem = c.order.PushFront(e)
	c.byKey[key] = e
	for c.order.Len() > c.capacity {
		victim := c.order.Remove(c.order.Back()).(*idemEntry)
		delete(c.byKey, victim.key)
	}
}

// forgetCompleted removes a retained success, the in-memory half of a
// replicated forget: the shipping shard's attempt under this key died,
// so a retry arriving here must re-execute rather than replay stale
// bytes. In-flight entries are left alone — a local owner already
// racing under the key settles it itself.
func (c *idemCache) forgetCompleted(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok || e.elem == nil {
		return
	}
	c.order.Remove(e.elem)
	delete(c.byKey, key)
}

// completedResult is one retained success, snapshotted for membership
// re-replication.
type completedResult struct {
	key    string
	lane   int
	stride int
	body   []byte
}

// completedSnapshot returns the retained successes oldest-first (LRU
// back to front), so re-replication re-applies them in roughly the
// order they were produced. In-flight entries are skipped — their
// completion ships through the normal path when it lands.
func (c *idemCache) completedSnapshot() []completedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]completedResult, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*idemEntry)
		out = append(out, completedResult{key: e.key, lane: e.lane, stride: e.stride, body: e.body})
	}
	return out
}

// len reports live entries (in-flight plus retained), for tests.
func (c *idemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}
