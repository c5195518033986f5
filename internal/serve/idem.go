package serve

import (
	"container/list"
	"strings"
	"sync"
)

// idemEntry tracks one idempotency key's execution: in flight until done
// closes, then either a retained success (ok, res set) or a failure
// (removed from the cache so a retry re-executes).
type idemEntry struct {
	key  string
	done chan struct{}
	ok   bool
	// res is the settled success: the complete record the journal and
	// the replication stream carry. Its body is the exact bytes the first
	// execution produced; its lane/stride say where the caller's slots
	// live when the execution rode a shared batch (stride <= 1 for solo
	// results), and replays re-emit them as response headers.
	res  record
	elem *list.Element // non-nil once retained in the completed LRU
	// restored stashes a replicated completion that arrived while a local
	// attempt under the same key was still in flight (a hedged duplicate
	// racing the original's shipped settlement). If the local attempt is
	// abandoned or fails, the stash is promoted instead of forgetting the
	// key — the replicated bytes are the authoritative result.
	restored *record
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

// complete finalizes an owned entry. Success retains res under the LRU
// cap; failure removes the key so the next attempt re-executes.
// Followers blocked on entry.done observe the final state afterwards.
func (c *idemCache) complete(e *idemEntry, ok bool, res record) {
	c.mu.Lock()
	if !ok && e.restored != nil {
		// The local attempt died, but a replicated completion for this key
		// landed while it ran: promote it rather than forgetting the key,
		// or a hedge loser's cancellation would destroy the winner's
		// settled result.
		ok, res = true, *e.restored
	}
	e.restored = nil
	e.ok, e.res = ok, res
	if ok {
		c.retain(e)
	} else {
		delete(c.byKey, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// restore seeds a retained success from a complete record — journaled,
// during crash recovery, or shipped by a peer: the entry is born
// completed (done already closed), so a retry under the same key replays
// the stored bytes exactly as if the execution had happened here. Keys
// already present — e.g. claimed by an in-flight recovered job — are
// left alone.
func (c *idemCache) restore(res record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[res.key]; ok {
		if e.elem == nil {
			// In flight here, already settled elsewhere (a hedged duplicate
			// raced the original): stash the authoritative bytes so an
			// abandoned local attempt promotes them instead of losing them.
			e.restored = &res
		}
		return
	}
	e := &idemEntry{key: res.key, done: make(chan struct{}), ok: true, res: res}
	close(e.done)
	c.byKey[res.key] = e
	c.retain(e)
}

// retain puts a settled success at the front of the LRU, evicting the
// oldest past capacity. Called with mu held.
func (c *idemCache) retain(e *idemEntry) {
	e.elem = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		victim := c.order.Remove(c.order.Back()).(*idemEntry)
		delete(c.byKey, victim.key)
	}
}

// completed returns the retained successes oldest-first (LRU back to
// front), so re-replication re-applies them in roughly the order they
// were produced. In-flight entries are skipped — their completion ships
// through the normal path when it lands.
func (c *idemCache) completed() []record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]record, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*idemEntry).res)
	}
	return out
}

// len reports live entries (in-flight plus retained), for tests.
func (c *idemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// idemSession returns the session half of an idempotency key:
// handleInfer scopes every client key to its session as
// "<session id>/<client key>".
func idemSession(key string) string {
	id, _, _ := strings.Cut(key, "/")
	return id
}
