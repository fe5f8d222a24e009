package server

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed LRU result cache. Keys are the hex SHA-256
// of the canonical request encoding (hwgc.CollectRequest.Key), values are
// complete encoded response bodies. Because every simulation is
// deterministic, a hit is byte-identical to what re-running the job would
// produce, so the cache is a pure fast path: it changes latency, never
// results.
//
// Each entry may also carry an origin: the id of the server that produced
// the body, for a cache that fronts other servers (gcfleet's edge cache
// stores the backend id it names on hits). gcserved leaves it empty.
//
// The cache is bounded both by entry count and by total body bytes; the
// least-recently-used entries are evicted first.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
}

type cacheEntry struct {
	key    string
	origin string
	body   []byte
}

// NewCache creates a cache bounded to maxEntries responses and maxBytes
// total body bytes. Non-positive bounds disable the cache (every Get
// misses, every Put is dropped), which keeps the serving path uniform.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the cached response body for key, marking it most recently
// used. The caller must not modify the returned slice.
func (c *Cache) Get(key string) ([]byte, bool) {
	body, _, ok := c.GetOrigin(key)
	return body, ok
}

// GetOrigin is Get that also returns the origin the body was stored with.
func (c *Cache) GetOrigin(key string) (body []byte, origin string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(e)
	ent := e.Value.(*cacheEntry)
	return ent.body, ent.origin, true
}

// Put stores body under key, evicting least-recently-used entries as needed
// to respect both bounds. Bodies larger than the byte bound are not cached.
func (c *Cache) Put(key string, body []byte) { c.PutOrigin(key, "", body) }

// PutOrigin is Put that records which server produced body. A key already
// present keeps its first origin: results are deterministic, so any
// producer's bytes are the same.
func (c *Cache) PutOrigin(key, origin string, body []byte) {
	if c.maxEntries <= 0 || c.maxBytes <= 0 || int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		// Deterministic simulations make re-stores byte-identical; just
		// refresh recency.
		c.ll.MoveToFront(e)
		return
	}
	e := c.ll.PushFront(&cacheEntry{key: key, origin: origin, body: body})
	c.items[key] = e
	c.bytes += int64(len(body))
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.bytes -= int64(len(ent.body))
	}
}

// Len returns the number of cached responses.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total cached body bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
