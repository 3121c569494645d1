package server

import (
	"container/list"
	"sync"
)

// resultCache is an LRU cache of marshaled result bodies for one
// generation, keyed by canonical batch signature.  Every entry belongs to
// the cache's generation: a get under any other generation misses, and the
// first put under a new generation drops the old one's entries outright, so
// bodies that can never be hit again (a committed append or a recovery
// moved the generation on) do not stay pinned until LRU pressure evicts
// them.  purge drops every entry without waiting for that put.
type resultCache struct {
	max int

	mu    sync.Mutex
	gen   string                   // guarded by mu: the generation the entries belong to
	ll    *list.List               // guarded by mu; front = most recent
	ent   map[string]*list.Element // guarded by mu
	bytes int64                    // guarded by mu: sum of cached body sizes
}

type cacheEntry struct {
	sig  string
	body []byte
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), ent: make(map[string]*list.Element)}
}

// get returns the body cached for sig under gen, refreshing its recency.
// The bytes are shared and must not be mutated by callers.
func (c *resultCache) get(gen, sig string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return nil, false
	}
	el, ok := c.ent[sig]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts or refreshes sig under gen, evicting the least recently used
// entry past capacity.  A put under a generation other than the cache's
// drops every entry first: the cache moves to gen.
func (c *resultCache) put(gen, sig string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		c.resetLocked()
		c.gen = gen
	}
	if el, ok := c.ent[sig]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(ent.body))
		ent.body = body
		return
	}
	c.ent[sig] = c.ll.PushFront(&cacheEntry{sig: sig, body: body})
	c.bytes += int64(len(body))
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		ent := el.Value.(*cacheEntry)
		delete(c.ent, ent.sig)
		c.bytes -= int64(len(ent.body))
	}
}

// purge drops every entry.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}

// resetLocked drops every entry; the caller holds c.mu.
func (c *resultCache) resetLocked() {
	c.ll.Init()
	clear(c.ent)
	c.bytes = 0
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// size reports the total bytes of cached result bodies.
func (c *resultCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
