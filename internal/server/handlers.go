package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
	"hwgc/internal/plan"
)

// maxBodyBytes bounds request bodies; inline plans are the only large
// payloads and 8 MiB of JSON is already a ~100k-object graph.
const maxBodyBytes = 8 << 20

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// statusRecorder captures the final status code for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so instrumented handlers can stream
// (the SSE endpoint asserts http.Flusher on its ResponseWriter).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint with request/status counting and, when
// observeLatency is set, service-latency observation.
func (s *Server) instrument(path string, observeLatency bool, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.requests.With(path).Add(1)
		s.metrics.responses.With(strconv.Itoa(rec.code)).Add(1)
		if observeLatency {
			s.metrics.latency.Observe(time.Since(start))
		}
	}
}

// decodeJSON strictly decodes the request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := plan.DecodeStrict(r.Body, v); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// retryAfterSeconds converts the configured backpressure hint to the
// integral seconds value of a Retry-After header, rounding up and clamping
// to a minimum of 1: a sub-second hint must never be emitted as "0", which
// clients read as "retry immediately" — the opposite of backpressure.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
		return false
	}
	return true
}

// execute runs one collect point through the shared serving path: cache
// lookup first (the zero-cost fast path — a hit never touches the queue),
// then the job manager's bounded admission with backpressure, then waiting
// under the per-request deadline. It is the common core of the
// single-request endpoints and the /v1/batch items.
func (s *Server) execute(ctx context.Context, pt *hwgc.SweepPoint) (body []byte, cached bool, err error) {
	if body, ok := s.cache.Get(pt.Key); ok {
		s.metrics.cacheHits.Add(1)
		return body, true, nil
	}
	s.metrics.cacheMisses.Add(1)

	jctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	body, err = s.jobs.Collect(jctx, pt.Key, pt.Canonical)
	if err != nil && jctx.Err() != nil && errors.Is(err, jctx.Err()) {
		s.metrics.timeouts.Add(1)
	}
	return body, false, err
}

// executeStatus maps an execute error to the per-item/request HTTP status
// and message, bumping the matching stall counters.
func (s *Server) executeStatus(err error) (int, string) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.metrics.queueFull.Add(1)
		return http.StatusTooManyRequests, fmt.Sprintf("job queue full (depth %d); retry later", s.opts.QueueDepth)
	case errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable, "server is shutting down"
	case errors.Is(err, jobs.ErrPreempted):
		return http.StatusServiceUnavailable, "job checkpointed and preempted by shutdown; retry after restart"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, fmt.Sprintf("request deadline (%s) exceeded while collect", s.opts.Timeout)
	default:
		return http.StatusInternalServerError, fmt.Sprintf("collect failed: %v", err)
	}
}

// runItem runs a collect or a sweep as its collect points: each goes
// through execute under its own collect key, at most cap(sem) at a time.
// The body is the collect's own, or the sweep's assembled from its points
// in core order; cached reports whether every point was a cache hit. On
// failure the error is that of the first failing point in core order.
func (s *Server) runItem(ctx context.Context, sem chan struct{}, it *hwgc.BatchItem, pts []hwgc.SweepPoint) (body []byte, cached bool, err error) {
	bodies := make([][]byte, len(pts))
	hits := make([]bool, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			bodies[i], hits[i], errs[i] = s.execute(ctx, &pts[i])
		}(i)
	}
	wg.Wait()
	cached = true
	for i := range pts {
		if errs[i] != nil {
			return nil, false, errs[i]
		}
		cached = cached && hits[i]
	}
	if it.Sweep == nil {
		return bodies[0], cached, nil
	}
	body, err = it.Sweep.ResponseBody(bodies)
	return body, cached, err
}

func writeResult(w http.ResponseWriter, key, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("X-Cache-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func (s *Server) handleCollect(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/collect", true, func(w http.ResponseWriter, r *http.Request) {
		var req hwgc.CollectRequest
		s.serveItem(w, r, &req, &hwgc.BatchItem{Collect: &req})
	})(w, r)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/sweep", true, func(w http.ResponseWriter, r *http.Request) {
		var req hwgc.SweepRequest
		s.serveItem(w, r, &req, &hwgc.BatchItem{Sweep: &req})
	})(w, r)
}

// serveItem serves the two single-request POST endpoints: it decodes the
// body into req, the collect or sweep of it, and runs it as its collect
// points under one request deadline. A sweep thus takes at most Workers
// queue slots however many points it has.
func (s *Server) serveItem(w http.ResponseWriter, r *http.Request, req any, it *hwgc.BatchItem) {
	if !requirePost(w, r) || !decodeJSON(w, r, req) {
		return
	}
	key, pts, err := it.Points() // canonicalizes req in place
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if scale := pts[0].Req.Scale; s.opts.MaxScale > 0 && scale > s.opts.MaxScale {
		writeError(w, http.StatusBadRequest, "scale %d exceeds server limit %d", scale, s.opts.MaxScale)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	body, cached, err := s.runItem(ctx, make(chan struct{}, s.opts.Workers), it, pts)
	if err != nil {
		code, msg := s.executeStatus(err)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		}
		writeError(w, code, "%s", msg)
		return
	}
	state := "MISS"
	if cached {
		state = "HIT"
	}
	writeResult(w, key, state, body)
}

// workloadsBody is the GET /v1/workloads response.
type workloadsBody struct {
	Workloads  []string
	Baselines  []string
	CoreRange  [2]int
	PaperCores []int
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/workloads", false, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, "%s requires GET", r.URL.Path)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(workloadsBody{
			Workloads:  hwgc.Workloads(),
			Baselines:  hwgc.Baselines(),
			CoreRange:  [2]int{1, 64},
			PaperCores: hwgc.PaperCoreCounts,
		})
	})(w, r)
}

// healthBody is the GET /healthz response.
type healthBody struct {
	Status     string
	Workers    int
	QueueDepth int
	QueueCap   int
	CacheLen   int
	// JobsQueued is the job manager's backlog across all classes: the
	// QueueDepth-bounded jobs plus queued async jobs and sweep points.
	JobsQueued int
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.instrument("/healthz", false, func(w http.ResponseWriter, r *http.Request) {
		body := healthBody{
			Status:     "ok",
			Workers:    s.opts.Workers,
			QueueDepth: s.jobs.Pool().SyncQueued,
			QueueCap:   s.opts.QueueDepth,
			CacheLen:   s.cache.Len(),
			JobsQueued: s.jobs.Backlog(),
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})(w, r)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.instrument("/metrics", false, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.Write(w)
		if s.opts.JobsDir != "" {
			_ = s.jobs.Metrics().Write(w)
		}
		if s.sweeps != nil {
			_ = s.sweeps.Metrics().Write(w)
		}
	})(w, r)
}
