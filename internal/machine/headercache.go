package machine

import "hwgc/internal/object"

// headerCache is an on-chip cache for object headers — the first of the two
// improvements the paper's conclusions propose for making better use of the
// available memory bandwidth ("header caches in conjunction with an
// optimized header FIFO", Section VII).
//
// Header loads dominate the coprocessor's memory traffic (Table II), and a
// large share of them re-read the same fromspace headers: every reference to
// an already-evacuated object loads its header again just to pick up the
// forwarding pointer — for hub-heavy graphs like javac, thousands of loads
// hit a handful of addresses.
//
// The cache is direct-mapped over header (object base) addresses and shared
// by all cores, like the header FIFO. Coherence is trivial by construction:
// the locking protocol guarantees a single writer per header, and every
// header store is visible to the cache when it is issued, so stores update
// the cache in place (write-through, allocate-on-write). A cached header is
// by definition newer than or equal to what memory holds — a pending store
// that would delay the load in the comparator array has already updated the
// cache — so hits are always consistent.
type headerCache struct {
	HeaderCacheState
	mask uint32
}

// HeaderCacheState is the header cache's lines and counters. Lines is empty
// when the cache is disabled.
type HeaderCacheState struct {
	Lines  []HeaderCacheLineState
	Hits   int64
	Misses int64
}

// HeaderCacheLineState is one direct-mapped cache line.
type HeaderCacheLineState struct {
	Valid bool
	Addr  object.Addr
	Data  object.Word
}

// newHeaderCache creates a cache with the given number of lines (rounded up
// to a power of two). Zero lines disables the cache.
func newHeaderCache(lines int) *headerCache {
	if lines <= 0 {
		return &headerCache{}
	}
	n := 1
	for n < lines {
		n <<= 1
	}
	return &headerCache{
		HeaderCacheState: HeaderCacheState{Lines: make([]HeaderCacheLineState, n)},
		mask:             uint32(n - 1),
	}
}

// Enabled reports whether the cache has any lines.
func (c *headerCache) Enabled() bool { return len(c.Lines) > 0 }

// Reset invalidates the cache for a new collection cycle (the semispaces
// flip, so all entries are stale).
func (c *headerCache) Reset() {
	clear(c.Lines)
	c.HeaderCacheState = HeaderCacheState{Lines: c.Lines}
}

// Lookup returns the cached header for addr, if present.
func (c *headerCache) Lookup(addr object.Addr) (object.Word, bool) {
	if !c.Enabled() {
		return 0, false
	}
	l := &c.Lines[addr&c.mask]
	if l.Valid && l.Addr == addr {
		c.Hits++
		return l.Data, true
	}
	c.Misses++
	return 0, false
}

// Update installs the header value for addr (on a header store, or when a
// header load completes from memory).
func (c *headerCache) Update(addr object.Addr, data object.Word) {
	if !c.Enabled() {
		return
	}
	c.Lines[addr&c.mask] = HeaderCacheLineState{Valid: true, Addr: addr, Data: data}
}
