package server

import (
	"time"

	"hwgc"
	"hwgc/internal/jobs"
	"hwgc/internal/stats"
)

// Metrics is the server's counter set, declared against a stats.Registry
// and exposed on /metrics. In the spirit of the paper's stall accounting —
// every cycle a core cannot make progress is attributed to a cause — every
// request the server cannot serve immediately is attributed to one: queue
// full (rejections), queue wait + service time (latency summary), or
// deadline expiry (timeouts).
type Metrics struct {
	stats.Registry

	requests    *stats.CounterVec // by path
	responses   *stats.CounterVec // by HTTP status code
	cacheHits   *stats.Int
	cacheMisses *stats.Int
	queueFull   *stats.Int
	timeouts    *stats.Int
	batchItems  *stats.Int // batch items executed (any outcome)
	batchFailed *stats.Int // batch items that did not end 200

	// Concurrent-collection scenario counters, aggregated from every
	// collect response whose config ran the built-in mutator.
	concRuns           *stats.CounterVec // by barrier mode
	barrierInvocations *stats.Int
	barrierCycles      *stats.Int
	floatingWords      *stats.Int

	// Memory-hierarchy counters, aggregated from every collect response
	// whose config enabled the NUMA or cache model.
	numaRuns      *stats.CounterVec // by tospace placement
	numaLocal     *stats.Int
	numaRemote    *stats.Int
	numaConflicts *stats.Int
	cacheL1Hits   *stats.Int
	cacheL2Hits   *stats.Int
	cacheMissesGC *stats.Int // L2 misses (requests that went to DRAM)
	cacheMSHRFull *stats.Int

	latency *stats.Summary
}

// NewMetrics returns an empty counter set whose queue, pool and cache
// series are sampled from mgr and c at scrape time.
func NewMetrics(mgr *jobs.Manager, c *Cache) *Metrics {
	m := &Metrics{}
	start := time.Now()
	r := &m.Registry
	m.requests = r.CounterVec("gcserved_requests_total", "HTTP requests received, by path.", "path")
	m.responses = r.CounterVec("gcserved_responses_total", "HTTP responses sent, by status code.", "code")
	m.cacheHits = r.Counter("gcserved_cache_hits_total", "Result-cache hits (fast path, no simulation run).")
	m.cacheMisses = r.Counter("gcserved_cache_misses_total", "Result-cache misses.")
	r.GaugeFunc("gcserved_cache_entries", "Cached responses currently held.", func() int64 { return int64(c.Len()) })
	r.GaugeFunc("gcserved_cache_bytes", "Bytes of cached response bodies currently held.", c.Bytes)
	r.GaugeFunc("gcserved_queue_depth", "Jobs waiting in the bounded queue.", func() int64 { return int64(mgr.Pool().SyncQueued) })
	r.GaugeFunc("gcserved_queue_capacity", "Capacity of the bounded job queue.", func() int64 { return int64(mgr.Pool().QueueDepth) })
	m.queueFull = r.Counter("gcserved_queue_full_total", "Requests rejected with 429 because the queue was full.")
	m.timeouts = r.Counter("gcserved_timeouts_total", "Requests that hit their deadline before a result was ready.")
	r.GaugeFunc("gcserved_jobs_inflight", "Jobs currently executing on the worker pool.", func() int64 { return mgr.Pool().Running })
	r.CounterFunc("gcserved_jobs_started_total", "Jobs a worker began executing.", func() int64 { return mgr.Pool().Started })
	r.CounterFunc("gcserved_jobs_done_total", "Jobs that finished executing.", func() int64 { return mgr.Pool().Done })
	r.CounterFunc("gcserved_jobs_skipped_total", "Queued jobs skipped because their deadline expired first.", func() int64 { return mgr.Pool().Skipped })
	m.batchItems = r.Counter("gcserved_batch_items_total", "Batch items executed via /v1/batch.")
	m.batchFailed = r.Counter("gcserved_batch_item_failures_total", "Batch items that did not complete with status 200.")
	m.concRuns = r.CounterVec("gcserved_concurrent_collections_total", "Collect responses produced with the built-in concurrent mutator, by write-barrier mode.", "barrier")
	m.barrierInvocations = r.Counter("gcserved_barrier_invocations_total", "Write-barrier invocations across all served concurrent collections.")
	m.barrierCycles = r.Counter("gcserved_barrier_cycles_total", "Mutator cycles spent inside the write barrier across all served concurrent collections.")
	m.floatingWords = r.Counter("gcserved_floating_garbage_words_total", "Words of floating garbage retained by barrier shading across all served concurrent collections.")
	m.numaRuns = r.CounterVec("gcserved_numa_collections_total", "Collect responses produced with the NUMA model enabled, by tospace placement.", "placement")
	m.numaLocal = r.Counter("gcserved_numa_local_accesses_total", "DRAM acceptances served by the requesting core's own domain across all served NUMA collections.")
	m.numaRemote = r.Counter("gcserved_numa_remote_accesses_total", "DRAM acceptances that crossed a domain boundary across all served NUMA collections.")
	m.numaConflicts = r.Counter("gcserved_numa_domain_conflicts_total", "Acceptances deferred by an exhausted per-domain budget across all served NUMA collections.")
	m.cacheL1Hits = r.Counter("gcserved_gc_cache_l1_hits_total", "GC-side L1 hits across all served collections with the cache model enabled.")
	m.cacheL2Hits = r.Counter("gcserved_gc_cache_l2_hits_total", "GC-side shared-L2 hits across all served collections with the cache model enabled.")
	m.cacheMissesGC = r.Counter("gcserved_gc_cache_misses_total", "GC-side loads that missed both levels and went to DRAM across all served collections with the cache model enabled.")
	m.cacheMSHRFull = r.Counter("gcserved_gc_cache_mshr_full_stalls_total", "Load issues rejected because every MSHR was busy across all served collections with the cache model enabled.")
	m.latency = r.Summary("gcserved_request_seconds", "Service latency of job endpoints (upper-bound quantile estimates).", 0.5, 0.95, 0.99)
	r.FloatGaugeFunc("gcserved_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(start).Seconds() })
	return m
}

// ObserveCollect aggregates the concurrent-collection and memory-hierarchy
// counters of one completed collect response. Responses whose config ran
// neither the mutator nor a hierarchy model are a no-op, as is a nil
// response (a result imported already finished, or one from the test run
// seam).
func (m *Metrics) ObserveCollect(resp *hwgc.CollectResponse) {
	if resp == nil {
		return
	}
	st := &resp.Result.Stats
	if ms := st.Mutator; ms != nil {
		mode := "none"
		if bm := st.Config.BarrierMode; bm != hwgc.BarrierNone {
			mode = string(bm)
		}
		m.concRuns.With(mode).Add(1)
		m.barrierInvocations.Add(ms.BarrierInvocations)
		m.barrierCycles.Add(ms.BarrierCycles)
		m.floatingWords.Add(ms.FloatingWords)
	}
	if st.Config.NUMADomains > 0 {
		placement := "naive"
		if st.Config.NUMAPlacement == hwgc.PlacementLocal {
			placement = "local"
		}
		m.numaRuns.With(placement).Add(1)
		m.numaLocal.Add(st.Mem.LocalAccesses)
		m.numaRemote.Add(st.Mem.RemoteAccesses)
		m.numaConflicts.Add(st.Mem.DomainConflicts)
	}
	if st.Config.L1Sets > 0 {
		m.cacheL1Hits.Add(st.Mem.L1Hits)
		m.cacheL2Hits.Add(st.Mem.L2Hits)
		m.cacheMissesGC.Add(st.Mem.L2Misses)
		m.cacheMSHRFull.Add(st.Mem.MSHRFullStalls)
	}
}
