package cluster

import (
	"time"

	"hwgc/internal/stats"
)

// Metrics is the fleet-level counter set, declared against a
// stats.Registry and exposed on /metrics. It mirrors the backend tier's
// stall accounting one level up: every request the fleet could not serve
// from the key's healthy owner is attributed to a cause — breaker trips,
// failovers, retries, hedges, or exhaustion.
type Metrics struct {
	stats.Registry

	exchanges       *stats.CounterVec // by backend id and status code
	routed          *stats.CounterVec // by backend id chosen as primary owner
	backendsAdded   *stats.Int        // runtime joins via the admin API
	backendsRemoved *stats.Int        // runtime removals via the admin API
	retries         *stats.Int        // sends after the first for one request
	failovers       *stats.Int        // sends that left the key's primary owner
	hedges          *stats.Int
	hedgeWins       *stats.Int
	backendFailures *stats.Int // transport errors + 5xx across the fleet
	exhausted       *stats.Int // requests that ran out of attempts/backends
	healthProbes    *stats.Int
	healthFailures  *stats.Int
	batchRequests   *stats.Int
	batchItems      *stats.Int
	batchFailed     *stats.Int
	cacheHits       *stats.Int     // requests answered from the edge cache
	cacheMisses     *stats.Int     // edge-cache lookups that went to a backend
	latency         *stats.Summary // merged exchange latency across backends
}

// NewMetrics returns an empty fleet counter set whose per-backend series
// are sampled from backends, and the edge-cache size from cacheBytes, at
// scrape time.
func NewMetrics(backends func() []*Backend, cacheBytes func() int64) *Metrics {
	m := &Metrics{}
	start := time.Now()
	r := &m.Registry
	m.exchanges = r.CounterVec("gcfleet_requests_total", "HTTP exchanges with backends, by backend and status code.", "backend", "code")
	m.routed = r.CounterVec("gcfleet_routed_total", "Requests whose primary ring owner was this backend (routing distribution).", "backend")
	perBackend := func(value func(*Backend) int64) func() map[string]int64 {
		return func() map[string]int64 {
			out := make(map[string]int64)
			for _, b := range backends() {
				out[b.id] = value(b)
			}
			return out
		}
	}
	r.GaugeVecFunc("gcfleet_backend_up", "Last health-probe outcome per backend (1 up, 0 down).", "backend", perBackend(func(b *Backend) int64 {
		if b.healthy.Load() {
			return 1
		}
		return 0
	}))
	r.GaugeVecFunc("gcfleet_breaker_state", "Circuit-breaker state per backend (0 closed, 1 open, 2 half-open).", "backend", perBackend(func(b *Backend) int64 { return int64(b.breaker.State()) }))
	r.CounterVecFunc("gcfleet_breaker_opens_total", "Times each backend's breaker opened.", "backend", perBackend(func(b *Backend) int64 { return b.breaker.Opens() }))
	r.CounterVecFunc("gcfleet_backend_errors_total", "Transport errors and 5xx replies per backend.", "backend", perBackend(func(b *Backend) int64 { return b.errors.Load() }))
	r.CounterVecFunc("gcfleet_hedged_to_total", "Hedge requests launched against each backend.", "backend", perBackend(func(b *Backend) int64 { return b.hedges.Load() }))
	r.GaugeFunc("gcfleet_backends", "Backends currently in the ring.", func() int64 { return int64(len(backends())) })
	m.backendsAdded = r.Counter("gcfleet_backends_added_total", "Backends joined at runtime via the admin API.")
	m.backendsRemoved = r.Counter("gcfleet_backends_removed_total", "Backends removed at runtime via the admin API.")
	m.retries = r.Counter("gcfleet_retries_total", "Sends after the first for one request (retry policy).")
	m.failovers = r.Counter("gcfleet_failovers_total", "Sends that left the key's primary ring owner.")
	m.hedges = r.Counter("gcfleet_hedges_total", "Hedge requests launched after the latency-percentile delay.")
	m.hedgeWins = r.Counter("gcfleet_hedge_wins_total", "Hedges that answered before the primary attempt.")
	m.backendFailures = r.Counter("gcfleet_backend_failures_total", "Transport errors and 5xx replies across the fleet.")
	m.exhausted = r.Counter("gcfleet_exhausted_total", "Requests that ran out of attempts or admissible backends.")
	m.healthProbes = r.Counter("gcfleet_health_probes_total", "Health probes sent.")
	m.healthFailures = r.Counter("gcfleet_health_failures_total", "Health probes that failed.")
	m.batchRequests = r.Counter("gcfleet_batch_requests_total", "/v1/batch requests served.")
	m.batchItems = r.Counter("gcfleet_batch_items_total", "Batch items scattered across the fleet.")
	m.batchFailed = r.Counter("gcfleet_batch_item_failures_total", "Batch items that did not complete with status 200.")
	m.cacheHits = r.Counter("gcfleet_cache_hits_total", "Collect/sweep requests answered from the fleet edge cache (no backend exchange).")
	m.cacheMisses = r.Counter("gcfleet_cache_misses_total", "Collect/sweep edge-cache lookups that were routed to a backend.")
	r.GaugeFunc("gcfleet_cache_bytes", "Bytes of reply bodies held in the fleet edge cache.", cacheBytes)
	// Hedged exchanges count once, as seen by the caller; the hedge delay is
	// derived from this summary's quantile.
	m.latency = r.Summary("gcfleet_request_seconds", "Backend exchange latency as seen by the fleet (upper-bound quantiles).", 0.5, 0.95, 0.99)
	r.FloatGaugeFunc("gcfleet_uptime_seconds", "Seconds since the fleet coordinator started.", func() float64 { return time.Since(start).Seconds() })
	return m
}
