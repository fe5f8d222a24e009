package cluster

import (
	"hash/maphash"
	"net/http"
	"sync"

	"hwgc/internal/server"
)

// edgeCache answers repeated collects at the fleet, with no backend
// exchange: /v1/collect requests, and the collect points of /v1/sweep
// requests and batch items. It holds collect content keys only. Replies
// are content-addressed and deterministic, so a stored 200 body is exactly
// what any backend would return again; the entry keeps the id of the
// backend that produced it for the X-Fleet-Backend header.
//
// A key is admitted on its second sighting only: the first sighting just
// records a 64-bit fingerprint, so a stream of one-off requests costs a
// bounded fingerprint set and never the result bytes.
type edgeCache struct {
	*server.Cache // entries carry the producing backend id as their origin
	seed          maphash.Seed

	mu   sync.Mutex
	seen map[uint64]struct{} // fingerprints of keys sighted at least once
}

// seenLimit bounds the sighting set; it is cleared when it reaches this
// size, which at worst delays a key's admission by one more sighting.
const seenLimit = 1 << 16

// newEdgeCache returns a cache bounded like server.Cache, or nil (every
// request proxied) when either bound is negative.
func newEdgeCache(entries int, bytes int64) *edgeCache {
	if entries < 0 || bytes < 0 {
		return nil
	}
	return &edgeCache{
		Cache: server.NewCache(entries, bytes),
		seed:  maphash.MakeSeed(),
		seen:  make(map[uint64]struct{}),
	}
}

// edgeGet looks key up in the edge cache. On a miss it reports whether a
// 200 reply for key is to be stored (its second sighting). With the cache
// off every lookup is a miss that stores nothing.
func (f *Fleet) edgeGet(key string) (body []byte, origin string, hit, admit bool) {
	if f.edge == nil {
		return nil, "", false, false
	}
	if body, origin, ok := f.edge.GetOrigin(key); ok {
		f.metrics.cacheHits.Add(1)
		return body, origin, true, false
	}
	f.metrics.cacheMisses.Add(1)
	return nil, "", false, f.edge.sighted(key)
}

// edgePut stores a backend's 200 reply for key when edgeGet admitted it.
func (f *Fleet) edgePut(admit bool, key string, res sendResult, err error) {
	if admit && err == nil && res.status == http.StatusOK {
		f.edge.PutOrigin(key, res.backend.id, res.body)
	}
}

// sighted records a sighting of key and reports whether it had been seen
// before, i.e. whether a 200 reply for it should be stored.
func (c *edgeCache) sighted(key string) bool {
	fp := maphash.String(c.seed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.seen[fp]; ok {
		return true
	}
	if len(c.seen) >= seenLimit {
		clear(c.seen)
	}
	c.seen[fp] = struct{}{}
	return false
}
