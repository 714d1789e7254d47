package server

import (
	"container/list"
	"sync"

	"repro/betweenness"
)

// resultCache is an LRU cache of converged estimation results, keyed by the
// full statistical identity of a run: graph digest, workload kind, eps,
// delta, seed, threads, and backend. Two sessions with equal keys would
// sample identically, so serving the second from the cache is free and
// exact — this is what makes repeated identical queries O(1) for the
// daemon. Only converged results are cached (a budget-stopped result is a
// resumable session state, not an answer).
//
// The cache lives in memory only. With a data dir, a restart re-seeds it
// from the records of sessions whose own state converged (see
// rehydrateResult), so an answer survives a crash as long as its session
// does.
//
// Cached *betweenness.Result values are shared read-only across sessions;
// handlers must copy anything they hand to a caller for mutation.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses int64
}

type cacheEntry struct {
	key string
	res *betweenness.Result
}

// newResultCache builds a cache of capacity entries (<= 0 caches nothing).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *resultCache) get(key string) (*betweenness.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts (or refreshes) a result, evicting the least recently used
// entries past the capacity.
func (c *resultCache) put(key string, res *betweenness.Result) {
	if c.cap <= 0 || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// stats returns the counters for the /stats endpoint.
func (c *resultCache) stats() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}
