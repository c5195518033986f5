package serve

import (
	"container/list"
	"fmt"
	"sync"

	"antace/internal/ckks"
	"antace/internal/serve/api"
)

// session is one registered client: its evaluation-key bundle and the
// memory it occupies. Keys are immutable after registration, so a worker
// holding a session keeps evaluating safely even if the cache evicts the
// entry mid-request — eviction only drops the cache's reference.
type session struct {
	id    string
	keys  *ckks.EvaluationKeySet
	bytes int64
}

// sessionCache is an LRU over registered key bundles with a byte budget.
// Evaluation keys are tens of megabytes at deployment scale, so the
// serving layer's whole point is to upload them once and reuse them
// across requests; the budget bounds how many clients stay resident.
type sessionCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = most recently used; values are *session
	byID   map[string]*list.Element

	hits, misses, evictions uint64
}

func newSessionCache(budget int64) *sessionCache {
	return &sessionCache{budget: budget, order: list.New(), byID: map[string]*list.Element{}}
}

// put registers a key bundle under a fresh id, evicting
// least-recently-used sessions until it fits. A bundle larger than the
// whole budget is refused.
func (c *sessionCache) put(keys *ckks.EvaluationKeySet, size int64) (*session, error) {
	id, err := api.NewID()
	if err != nil {
		return nil, err
	}
	return c.putWithID(id, keys, size)
}

// putWithID inserts a bundle under a caller-chosen id — the reload path
// for sessions spilled to disk, which must keep the id clients already
// hold. If two loads race, the winner's entry is returned and the
// loser's copy dropped.
func (c *sessionCache) putWithID(id string, keys *ckks.EvaluationKeySet, size int64) (*session, error) {
	if size > c.budget {
		return nil, fmt.Errorf("serve: key bundle of %d bytes exceeds the session budget of %d", size, c.budget)
	}
	s := &session{id: id, keys: keys, bytes: size}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*session), nil
	}
	for c.used+size > c.budget {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		victim := c.order.Remove(oldest).(*session)
		delete(c.byID, victim.id)
		c.used -= victim.bytes
		c.evictions++
	}
	c.byID[id] = c.order.PushFront(s)
	c.used += size
	return s, nil
}

// get looks a session up and marks it most recently used.
func (c *sessionCache) get(id string) (*session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*session), true
}

// drop removes a session explicitly (DELETE /v1/sessions/<id>).
func (c *sessionCache) drop(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return false
	}
	victim := c.order.Remove(el).(*session)
	delete(c.byID, id)
	c.used -= victim.bytes
	return true
}

// all returns the resident sessions, for membership re-replication.
// Keys are immutable after registration, so the returned sessions stay
// safe to marshal outside the lock.
func (c *sessionCache) all() []*session {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*session, 0, len(c.byID))
	for _, el := range c.byID {
		out = append(out, el.Value.(*session))
	}
	return out
}

func (c *sessionCache) snapshot() (count int, used int64, hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byID), c.used, c.hits, c.misses, c.evictions
}
