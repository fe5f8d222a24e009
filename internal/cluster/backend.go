package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Backend is one gcserved instance behind the fleet: its address, its
// circuit breaker, its bounded batch-concurrency semaphore and its
// per-backend counters.
type Backend struct {
	id      string // short stable name, used in ring + metrics labels
	baseURL string // scheme://host:port, no trailing slash
	breaker *Breaker
	sem     chan struct{} // bounds in-flight batch items per backend

	requests  atomic.Int64 // HTTP exchanges attempted (incl. retries)
	errors    atomic.Int64 // transport errors + 5xx responses
	routed    atomic.Int64 // times this backend was the key's primary owner
	healthy   atomic.Bool  // last health-probe outcome
	healthErr atomic.Value // string: last health-probe error, for /healthz

	// removed is set when the backend leaves the ring: in-flight exchanges
	// may still settle against it, but it takes no probes and no breaker or
	// metric attribution, and serves only as a rebalance source.
	removed atomic.Bool
	// wasOpen tracks the breaker's last observed open state so probeAll
	// fires the rebalance trigger once per open transition, not per probe.
	wasOpen atomic.Bool
}

// Removed reports whether the backend has been removed from the ring.
func (b *Backend) Removed() bool { return b.removed.Load() }

// ID returns the backend's stable name.
func (b *Backend) ID() string { return b.id }

// BaseURL returns the backend's base URL.
func (b *Backend) BaseURL() string { return b.baseURL }

// Breaker returns the backend's circuit breaker.
func (b *Backend) Breaker() *Breaker { return b.breaker }

// newBackend validates and normalizes a backend URL. The backend id is
// "b<i>:<host>" — stable for a fixed flag order, unique, and short enough
// for metric labels.
func newBackend(i int, raw string, threshold int, cooldown time.Duration, inflight int) (*Backend, error) {
	u, err := url.Parse(strings.TrimRight(raw, "/"))
	if err != nil {
		return nil, fmt.Errorf("cluster: backend %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("cluster: backend %q: need an http(s) URL", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: backend %q: missing host", raw)
	}
	b := &Backend{
		id:      fmt.Sprintf("b%d:%s", i, u.Host),
		baseURL: u.Scheme + "://" + u.Host,
		breaker: NewBreaker(threshold, cooldown),
		sem:     make(chan struct{}, inflight),
	}
	b.healthy.Store(true) // optimistic until the first probe says otherwise
	b.healthErr.Store("")
	return b, nil
}
