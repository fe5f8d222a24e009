package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"hwgc"
	"hwgc/internal/frontdoor"
	"hwgc/internal/plan"
)

// handleCollect serves POST /v1/collect: the fleet decodes as strictly as
// gcserved and canonicalizes locally (so equivalent spellings share one key
// and one owner), answers from its edge cache when it can, and otherwise
// routes by content key and forwards the canonical body. A small body goes
// through the body memo, so a byte-identical repeat of an accepted body
// skips JSON entirely. Either way the reply body is the backend's verbatim,
// byte-identical to what the owner would serve directly, and it goes out
// with a Content-Length in one write, as gcserved's does.
func (f *Fleet) handleCollect(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.RequirePost(w, r) {
		return
	}
	key, canon, err := f.memo.readCollect(w, r)
	if err != nil {
		frontdoor.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, origin, hit, admit := f.edgeGet(key)
	if hit {
		// The header set of a proxied backend hit.
		w.Header().Set("X-Fleet-Backend", origin)
		frontdoor.WriteResult(w, key, "HIT", body)
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

// pointReply is the outcome of one collect point routed by routePoint. As
// the error of a failed point it carries the whole exchange, so a failed
// /v1/sweep is answered with that point's own reply.
type pointReply struct {
	res sendResult
	err error
	hit bool // answered by the edge cache or a backend cache
}

func (p *pointReply) Error() string {
	if p.err != nil {
		return p.err.Error()
	}
	return fmt.Sprintf("backend replied %d", p.res.status)
}

func (p *pointReply) Unwrap() error { return p.err }

// asPointReply returns the point reply err carries, or a reply that failed
// with err (a sweep whose reply could not be assembled).
func asPointReply(err error) *pointReply {
	var p *pointReply
	if errors.As(err, &p) {
		return p
	}
	return &pointReply{err: err}
}

// runPoint is the fleet's frontdoor.Door.RunPoint: the point routed by
// routePoint, failing with its *pointReply unless its owner answered 200.
func (f *Fleet) runPoint(ctx context.Context, pt *hwgc.SweepPoint) ([]byte, bool, error) {
	p := f.routePoint(ctx, pt.Key, pt.Canonical)
	if p.err != nil || p.res.status != http.StatusOK {
		return nil, false, &p
	}
	return p.res.body, p.hit, nil
}

// writeFailure answers a failed /v1/sweep with its first failing point's
// reply, as a proxied /v1/collect of that point would be answered: the
// backend's verbatim, with X-Fleet-Backend and Retry-After.
func (f *Fleet) writeFailure(w http.ResponseWriter, err error) {
	p := asPointReply(err)
	f.finishProxy(w, p.res, p.err)
}

// itemStatus maps a failed point onto a batch item's status and error.
func (f *Fleet) itemStatus(err error) (int, string) {
	p := asPointReply(err)
	switch {
	case p.err == nil || p.res.status != 0:
		// An authoritative non-200 (400, or a surfaced 429/5xx after
		// exhausting retries): report the backend's own status and error.
		return p.res.status, itemError(p.res)
	case errors.Is(p.err, ErrNoBackends):
		return http.StatusServiceUnavailable, p.err.Error()
	case errors.Is(p.err, context.DeadlineExceeded), errors.Is(p.err, context.Canceled):
		return http.StatusGatewayTimeout, p.err.Error()
	default:
		return http.StatusBadGateway, p.err.Error()
	}
}

// itemError condenses a failed exchange into the per-item Error string:
// the backend's own error text when its reply carries one, so the item
// reads as the backend's own batch item would.
func itemError(res sendResult) string {
	if res.err != nil {
		return res.err.Error()
	}
	if msg := frontdoor.ErrorText(res.body); msg != "" {
		return msg
	}
	return fmt.Sprintf("backend replied %d", res.status)
}

// primaryFor returns the live backend that owns key on the ring.
func (f *Fleet) primaryFor(key string) *Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.backends[f.ring.Owner(key)]
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
		frontdoor.WriteError(w, http.StatusServiceUnavailable, "no healthy backend for this key (all breakers open)")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		f.metrics.exhausted.Add(1)
		frontdoor.WriteError(w, http.StatusGatewayTimeout, "fleet deadline (%s) exceeded", f.opts.Timeout)
	case errors.Is(err, errReplyTooLarge):
		frontdoor.WriteError(w, http.StatusBadGateway, "backend %s: %v", res.backend.id, err)
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
		frontdoor.WriteError(w, http.StatusBadGateway, "all backends failed: %v", err)
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
	if !frontdoor.RequireGet(w, r) {
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
	frontdoor.WriteJSON(w, code, h)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.metrics.Write(w)
	_ = f.emetrics.Write(w)
	_ = f.sweeps.Metrics().Write(w)
}
