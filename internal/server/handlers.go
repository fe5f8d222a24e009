package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hwgc"
	"hwgc/internal/frontdoor"
	"hwgc/internal/jobs"
)

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

// executeStatus maps an execute error to the batch item's or request's
// HTTP status and message, bumping the matching stall counters.
func (s *Server) executeStatus(err error) (int, string) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.metrics.queueFull.Add(1)
		return http.StatusTooManyRequests, fmt.Sprintf("job queue full (depth %d); retry later", s.opts.QueueDepth)
	case errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable, "server is shutting down"
	case errors.Is(err, jobs.ErrPreempted):
		return http.StatusServiceUnavailable, "job preempted by shutdown; retry after restart"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, fmt.Sprintf("request deadline (%s) exceeded while collect", s.opts.Timeout)
	default:
		return http.StatusInternalServerError, fmt.Sprintf("collect failed: %v", err)
	}
}

// writeFailure answers a /v1/collect or /v1/sweep request that failed with
// err, with Retry-After on backpressure.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	code, msg := s.executeStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
	}
	frontdoor.WriteError(w, code, "%s", msg)
}

// checkScale is the MaxScale admission check of every entry that runs
// collects: /v1/collect, /v1/sweep, batch items, /v1/jobs and /v1/sweeps.
func (s *Server) checkScale(scale int) error {
	if s.opts.MaxScale > 0 && scale > s.opts.MaxScale {
		return fmt.Errorf("scale %d exceeds server limit %d", scale, s.opts.MaxScale)
	}
	return nil
}

// admitSweep vets a canonical /v1/sweeps space: a known class, and every
// scale within MaxScale.
func (s *Server) admitSweep(space *hwgc.SweepSpace, class string) error {
	if class != "" && !s.jobs.HasClass(class) {
		return fmt.Errorf("unknown job class %q", class)
	}
	for _, sc := range space.Scales {
		if err := s.checkScale(sc); err != nil {
			return err
		}
	}
	return nil
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
		if !frontdoor.RequireGet(w, r) {
			return
		}
		frontdoor.WriteJSON(w, http.StatusOK, workloadsBody{
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
