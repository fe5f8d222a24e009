// Package frontdoor is the request-level front door that gcserved
// (internal/server) and gcfleet (internal/cluster) share. It owns the steps
// of the sync endpoints /v1/collect, /v1/sweep and /v1/batch that do not
// depend on how one collect point is answered:
//
//  1. decode strictly and canonicalize into collect points
//     (hwgc.BatchItem.Points);
//  2. run the points concurrently, under an optional per-request bound;
//  3. the first failing point in core order decides the reply;
//  4. X-Cache is HIT only when every point was a hit;
//  5. assemble a sweep's reply with SweepRequest.ResponseBody;
//  6. write X-Cache, X-Cache-Key and Content-Length;
//  7. for a batch, tally the items into 200 or 207.
//
// It also serves the async /v1/sweeps endpoints over a sweep.Coordinator
// (Sweeps) and holds the helpers every handler of both tiers uses. A tier
// supplies only a Door: how it answers one point, how it writes a failed
// request, how it maps an error to a batch item, and its admission checks.
// Both tiers thus serve the same bytes from one copy of this code.
package frontdoor

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/plan"
)

// MaxBodyBytes bounds single-request bodies; inline plans are the only
// large payloads and 8 MiB of JSON is already a ~100k-object graph.
const MaxBodyBytes = 8 << 20

// MaxBatchBodyBytes bounds /v1/batch bodies: up to MaxBatchItems inline
// plans at the single-request limit would be excessive, but batches of
// named benchmarks are tiny; 16 MiB comfortably covers mixed batches.
const MaxBatchBodyBytes = 16 << 20

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string
}

// WriteError writes code with the JSON error envelope.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// ErrorText returns the Error field of a JSON error envelope, or "" when
// body is not one.
func ErrorText(body []byte) string {
	var e errorBody
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error
}

// WriteJSON serves v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteResult writes a 200 result body with its cache headers and
// Content-Length, so it goes out in one write instead of chunked.
func WriteResult(w http.ResponseWriter, key, cacheState string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cacheState)
	h.Set("X-Cache-Key", key)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// RequirePost answers 405 and returns false unless r is a POST.
func RequirePost(w http.ResponseWriter, r *http.Request) bool {
	return requireMethod(w, r, http.MethodPost)
}

// RequireGet answers 405 and returns false unless r is a GET.
func RequireGet(w http.ResponseWriter, r *http.Request) bool {
	return requireMethod(w, r, http.MethodGet)
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		WriteError(w, http.StatusMethodNotAllowed, "%s requires %s", r.URL.Path, method)
		return false
	}
	return true
}

// DecodeJSON strictly decodes a body of at most MaxBodyBytes into v, and
// answers 400 and returns false when it does not decode.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := plan.DecodeStrict(r.Body, v); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// Door serves /v1/collect, /v1/sweep and /v1/batch for one tier. RunPoint,
// WriteFailure and ItemStatus must be set; the rest is optional.
type Door struct {
	// RunPoint answers one collect point: its reply body, and whether it
	// was a cache hit.
	RunPoint func(ctx context.Context, pt *hwgc.SweepPoint) (body []byte, hit bool, err error)
	// WriteFailure writes the reply to a /v1/collect or /v1/sweep request
	// that failed with err: the error of its first failing point in core
	// order, of assembling the sweep's reply, or of the request deadline
	// while it waited for a slot.
	WriteFailure func(w http.ResponseWriter, err error)
	// ItemStatus maps such an error to a batch item's status and text.
	ItemStatus func(err error) (status int, text string)
	// Admit, when set, vets every collect point before any runs; its error
	// is a 400 with the error's text.
	Admit func(req *hwgc.CollectRequest) error
	// Bound, when positive, is how many points of one request (all the
	// items of a batch together) run at once.
	Bound int
	// Timeout is the deadline of one /v1/collect or /v1/sweep request. A
	// batch has none of its own: RunPoint bounds each point.
	Timeout time.Duration
	// OnBatch, when set, sees every tallied batch reply before it is
	// written.
	OnBatch func(*hwgc.BatchResponse)
}

// Collect serves POST /v1/collect.
func (d *Door) Collect(w http.ResponseWriter, r *http.Request) {
	var req hwgc.CollectRequest
	d.serveItem(w, r, &req, &hwgc.BatchItem{Collect: &req})
}

// Sweep serves POST /v1/sweep: a core sweep runs as its collect points,
// each under its own collect key.
func (d *Door) Sweep(w http.ResponseWriter, r *http.Request) {
	var req hwgc.SweepRequest
	d.serveItem(w, r, &req, &hwgc.BatchItem{Sweep: &req})
}

// serveItem decodes the body into req, the collect or sweep of it, and runs
// it as its collect points under one request deadline.
func (d *Door) serveItem(w http.ResponseWriter, r *http.Request, req any, it *hwgc.BatchItem) {
	if !RequirePost(w, r) || !DecodeJSON(w, r, req) {
		return
	}
	key, pts, err := it.Points() // canonicalizes req in place
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if err := d.admit(pts); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.Timeout)
	defer cancel()
	body, hit, err := d.run(ctx, d.slots(), it, pts)
	if err != nil {
		d.WriteFailure(w, err)
		return
	}
	state := "MISS"
	if hit {
		state = "HIT"
	}
	WriteResult(w, key, state, body)
}

// Batch serves POST /v1/batch: every item runs as its collect points, with
// per-item outcomes in request order, so one bad or backpressured item
// never fails the whole batch. The reply is 200 when every item succeeded
// and 207 Multi-Status when any failed.
func (d *Door) Batch(w http.ResponseWriter, r *http.Request) {
	if !RequirePost(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes)
	req, err := hwgc.DecodeBatchRequest(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	resp := &hwgc.BatchResponse{Items: make([]hwgc.BatchItemResult, len(req.Items))}
	slots := d.slots()
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Items[i] = d.batchItem(r.Context(), slots, i, &req.Items[i])
		}(i)
	}
	wg.Wait()
	resp.Tally()
	if d.OnBatch != nil {
		d.OnBatch(resp)
	}
	code := http.StatusOK
	if resp.Failed > 0 {
		code = http.StatusMultiStatus
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = resp.Encode(w)
}

func (d *Door) batchItem(ctx context.Context, slots chan struct{}, i int, it *hwgc.BatchItem) hwgc.BatchItemResult {
	key, pts, err := it.Points()
	if err != nil {
		return hwgc.BatchItemResult{Index: i, Status: http.StatusBadRequest, Error: err.Error()}
	}
	if err := d.admit(pts); err != nil {
		return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusBadRequest, Error: err.Error()}
	}
	body, _, err := d.run(ctx, slots, it, pts)
	if err != nil {
		code, msg := d.ItemStatus(err)
		return hwgc.BatchItemResult{Index: i, Key: key, Status: code, Error: msg}
	}
	return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusOK, Body: body}
}

func (d *Door) admit(pts []hwgc.SweepPoint) error {
	if d.Admit == nil {
		return nil
	}
	for i := range pts {
		if err := d.Admit(&pts[i].Req); err != nil {
			return err
		}
	}
	return nil
}

// slots returns a fresh per-request semaphore of Bound slots, or nil when
// the request is unbounded.
func (d *Door) slots() chan struct{} {
	if d.Bound <= 0 {
		return nil
	}
	return make(chan struct{}, d.Bound)
}

// run answers the collect points of one item concurrently, at most
// cap(slots) at a time when slots is non-nil. The body is the collect's
// own, or the sweep's assembled from its points in core order; hit reports
// whether every point was a cache hit. On failure the error is that of the
// first failing point in core order, whichever failed first in time.
func (d *Door) run(ctx context.Context, slots chan struct{}, it *hwgc.BatchItem, pts []hwgc.SweepPoint) (body []byte, hit bool, err error) {
	bodies := make([][]byte, len(pts))
	hits := make([]bool, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		if slots != nil && !acquire(ctx, slots) {
			errs[i] = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if slots != nil {
				defer func() { <-slots }()
			}
			bodies[i], hits[i], errs[i] = d.RunPoint(ctx, &pts[i])
		}(i)
	}
	wg.Wait()
	hit = true
	for i := range pts {
		if errs[i] != nil {
			return nil, false, errs[i]
		}
		hit = hit && hits[i]
	}
	if it.Sweep == nil {
		return bodies[0], hit, nil
	}
	body, err = it.Sweep.ResponseBody(bodies)
	return body, hit, err
}

// acquire takes a slot, and reports false, holding none, once ctx is done:
// no point starts under a dead request context.
func acquire(ctx context.Context, slots chan struct{}) bool {
	select {
	case slots <- struct{}{}:
		if ctx.Err() == nil {
			return true
		}
		<-slots
	case <-ctx.Done():
	}
	return false
}
