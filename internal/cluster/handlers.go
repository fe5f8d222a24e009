package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"hwgc"
	"hwgc/internal/plan"
)

// maxBodyBytes bounds single-request bodies, matching the backend limit.
const maxBodyBytes = 8 << 20

type errorBody struct {
	Error string
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeJSON serves v as indented JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
		return false
	}
	return true
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "%s requires GET", r.URL.Path)
		return false
	}
	return true
}

// handleCollect serves POST /v1/collect: the fleet decodes as strictly as
// gcserved and canonicalizes locally (so equivalent spellings share one key
// and one owner), answers from its edge cache when it can, and otherwise
// routes by content key and forwards the canonical body. A small body goes
// through the body memo, so a byte-identical repeat of an accepted body
// skips JSON entirely. Either way the reply body is the backend's verbatim,
// byte-identical to what the owner would serve directly, and it goes out
// with a Content-Length in one write, as gcserved's does.
func (f *Fleet) handleCollect(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	key, canon, err := f.memo.readCollect(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, origin, hit, admit := f.edgeGet(key)
	if hit {
		// The header set of a proxied backend hit.
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Cache", "HIT")
		h.Set("X-Cache-Key", key)
		h.Set("X-Fleet-Backend", origin)
		writeBody(w, http.StatusOK, body)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	res, err := f.do(ctx, http.MethodPost, "/v1/collect", key, canon)
	f.edgePut(admit, key, res, err)
	f.finishProxy(w, res, err)
}

// decodeCollect strictly decodes and canonicalizes a collect body into its
// content key and canonical bytes. Its errors are worded as gcserved words
// them: "decoding request" for a body that does not decode, "invalid
// request" for one that does not canonicalize.
func decodeCollect(body io.Reader) (key string, canon []byte, err error) {
	var req hwgc.CollectRequest
	if err := plan.DecodeStrict(body, &req); err != nil {
		return "", nil, fmt.Errorf("decoding request: %w", err)
	}
	if canon, err = req.CanonicalJSON(); err != nil {
		return "", nil, fmt.Errorf("invalid request: %w", err)
	}
	return hwgc.KeyBytes(canon), canon, nil
}

// writeBody writes a buffered reply with its Content-Length, so it goes
// out in one write instead of chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// handleSweep serves POST /v1/sweep by its collect points: the sweep is
// canonicalized and expanded here (an invalid one is rejected before any
// fan-out), every point is answered from the edge cache or routed to its
// own collect-key owner, and the points' bodies are assembled into the
// same reply bytes a single gcserved produces. X-Cache is HIT only when
// every point was a hit; a failure is the first failing point's reply, in
// core order.
func (f *Fleet) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req hwgc.SweepRequest
	if err := plan.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	pts, err := req.Points()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	body, cached, failed := f.runItem(ctx, &hwgc.BatchItem{Sweep: &req}, pts)
	if failed != nil {
		f.finishProxy(w, failed.res, failed.err)
		return
	}
	key, _ := req.Key()
	state := "MISS"
	if cached {
		state = "HIT"
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", state)
	h.Set("X-Cache-Key", key)
	writeBody(w, http.StatusOK, body)
}

// pointReply is the outcome of one collect point routed by routePoint.
type pointReply struct {
	res sendResult
	err error
	hit bool // answered by the edge cache or a backend cache
}

// runItem routes the collect points of a collect or a sweep concurrently.
// The body is the collect's own, or the sweep's assembled from its points
// in core order; cached reports whether every point was a cache hit. A
// failure is the first failing point in core order.
func (f *Fleet) runItem(ctx context.Context, it *hwgc.BatchItem, pts []hwgc.SweepPoint) (body []byte, cached bool, failed *pointReply) {
	replies := make([]pointReply, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = f.routePoint(ctx, pts[i].Key, pts[i].Canonical)
		}(i)
	}
	wg.Wait()
	bodies := make([][]byte, len(pts))
	cached = true
	for i := range replies {
		if replies[i].err != nil || replies[i].res.status != http.StatusOK {
			return nil, false, &replies[i]
		}
		bodies[i] = replies[i].res.body
		cached = cached && replies[i].hit
	}
	if it.Sweep == nil {
		return bodies[0], cached, nil
	}
	body, err := it.Sweep.ResponseBody(bodies)
	if err != nil {
		return nil, false, &pointReply{err: err}
	}
	return body, cached, nil
}

// routePoint answers one collect point of a sweep or batch: from the edge
// cache when it can, and otherwise from the key's ring owner, under that
// owner's semaphore (which bounds how many points of all sweeps and
// batches one backend has in flight) and the standard retry/failover
// policy, with a fresh deadline once the slot is held.
func (f *Fleet) routePoint(ctx context.Context, key string, canon []byte) pointReply {
	body, _, hit, admit := f.edgeGet(key)
	if hit {
		return pointReply{res: sendResult{status: http.StatusOK, body: body}, hit: true}
	}
	owner := f.primaryFor(key)
	if owner == nil {
		return pointReply{err: ErrNoBackends}
	}
	select {
	case owner.sem <- struct{}{}:
		defer func() { <-owner.sem }()
	case <-ctx.Done():
		return pointReply{err: fmt.Errorf("deadline exceeded while waiting for backend slot: %w", ctx.Err())}
	}
	pctx, cancel := context.WithTimeout(ctx, f.opts.Timeout)
	defer cancel()
	res, err := f.do(pctx, http.MethodPost, "/v1/collect", key, canon)
	f.edgePut(admit, key, res, err)
	return pointReply{res: res, err: err, hit: err == nil && res.header.Get("X-Cache") == "HIT"}
}

// finishProxy maps a routing outcome onto the client response.
func (f *Fleet) finishProxy(w http.ResponseWriter, res sendResult, err error) {
	switch {
	case err == nil:
		copyHeader(w, res.header, "Content-Type")
		copyHeader(w, res.header, "X-Cache")
		copyHeader(w, res.header, "X-Cache-Key")
		copyHeader(w, res.header, "Retry-After")
		if res.backend != nil {
			w.Header().Set("X-Fleet-Backend", res.backend.id)
		}
		writeBody(w, res.status, res.body)
	case errors.Is(err, ErrNoBackends):
		f.metrics.exhausted.Add(1)
		writeError(w, http.StatusServiceUnavailable, "no healthy backend for this key (all breakers open)")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		f.metrics.exhausted.Add(1)
		writeError(w, http.StatusGatewayTimeout, "fleet deadline (%s) exceeded", f.opts.Timeout)
	case errors.Is(err, errReplyTooLarge):
		writeError(w, http.StatusBadGateway, "backend %s: %v", res.backend.id, err)
	case errors.Is(err, ErrExhausted) && res.status != 0:
		// Out of attempts but we do hold a last reply (a 429 or 5xx):
		// surface it so the client sees the backend's own signal.
		f.metrics.exhausted.Add(1)
		copyHeader(w, res.header, "Content-Type")
		copyHeader(w, res.header, "Retry-After")
		if res.backend != nil {
			w.Header().Set("X-Fleet-Backend", res.backend.id)
		}
		writeBody(w, res.status, res.body)
	default:
		f.metrics.exhausted.Add(1)
		writeError(w, http.StatusBadGateway, "all backends failed: %v", err)
	}
}

func copyHeader(w http.ResponseWriter, from http.Header, name string) {
	if from == nil {
		return
	}
	if v := from.Get(name); v != "" {
		w.Header().Set(name, v)
	}
}

// handleWorkloads forwards GET /v1/workloads to a healthy backend (the
// listing is identical on every backend).
func (f *Fleet) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	res, err := f.do(ctx, http.MethodGet, "/v1/workloads", "workloads", nil)
	f.finishProxy(w, res, err)
}

// fleetHealth is the GET /healthz response: the coordinator is "ok" while
// at least one backend is admissible, "degraded" otherwise.
type fleetHealth struct {
	Status   string
	Backends []backendHealth
}

type backendHealth struct {
	ID      string
	URL     string
	Breaker string
	Up      bool
	Error   string `json:",omitempty"`
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := fleetHealth{Status: "degraded"}
	for _, b := range f.Backends() {
		state := b.breaker.State()
		up := b.healthy.Load()
		if state != BreakerOpen {
			h.Status = "ok"
		}
		errStr, _ := b.healthErr.Load().(string)
		h.Backends = append(h.Backends, backendHealth{
			ID: b.id, URL: b.baseURL, Breaker: state.String(), Up: up, Error: errStr,
		})
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.metrics.Write(w)
	_ = f.emetrics.Write(w)
	_ = f.sweeps.Metrics().Write(w)
}
