package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"hwgc"
)

// maxBatchBodyBytes matches the backend /v1/batch body bound.
const maxBatchBodyBytes = 16 << 20

// handleBatch serves POST /v1/batch on the fleet: scatter-gather. Every
// item is canonicalized locally and run as its collect points, each routed
// to its ring owner (so it still hits the cache that already holds its
// result) under the full retry/failover policy, and the items are gathered
// into the same BatchResponse encoding one gcserved produces — per-item
// partial failures, never a hung batch.
func (f *Fleet) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	req, err := hwgc.DecodeBatchRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	resp := f.runBatch(r.Context(), req)
	code := http.StatusOK
	if resp.Failed > 0 {
		code = http.StatusMultiStatus
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = resp.Encode(w)
}

// runBatch scatters the items across the fleet and gathers per-item
// results in request order. Concurrency is bounded per backend (each
// point's route acquires its primary owner's semaphore before sending), so
// a large batch cannot monopolize any single backend's admission queue.
func (f *Fleet) runBatch(ctx context.Context, req *hwgc.BatchRequest) *hwgc.BatchResponse {
	resp := &hwgc.BatchResponse{Items: make([]hwgc.BatchItemResult, len(req.Items))}
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Items[i] = f.runBatchItem(ctx, i, &req.Items[i])
		}(i)
	}
	wg.Wait()
	resp.Tally()
	f.metrics.batchRequests.Add(1)
	f.metrics.batchItems.Add(int64(len(resp.Items)))
	f.metrics.batchFailed.Add(int64(resp.Failed))
	return resp
}

// runBatchItem runs one item as its collect points, each routed like a
// sweep point (edge cache, owner semaphore, retry/failover), and reports
// the item's result or its first failing point in core order.
func (f *Fleet) runBatchItem(ctx context.Context, i int, it *hwgc.BatchItem) hwgc.BatchItemResult {
	key, pts, err := it.Points()
	if err != nil {
		return hwgc.BatchItemResult{Index: i, Status: http.StatusBadRequest, Error: err.Error()}
	}
	body, _, failed := f.runItem(ctx, it, pts)
	if failed != nil {
		status, msg := failed.status()
		return hwgc.BatchItemResult{Index: i, Key: key, Status: status, Error: msg}
	}
	return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusOK, Body: body}
}

// status maps a failed point onto a batch item's status and error.
func (p *pointReply) status() (int, string) {
	switch {
	case p.err == nil || p.res.status != 0:
		// An authoritative non-200 (400, or a surfaced 429/5xx after
		// exhausting retries): report the backend's own status.
		return p.res.status, itemError(p.res)
	case errors.Is(p.err, ErrNoBackends):
		return http.StatusServiceUnavailable, p.err.Error()
	case errors.Is(p.err, context.DeadlineExceeded), errors.Is(p.err, context.Canceled):
		return http.StatusGatewayTimeout, p.err.Error()
	default:
		return http.StatusBadGateway, p.err.Error()
	}
}

// itemError condenses a failed exchange into the per-item Error string.
func itemError(res sendResult) string {
	if res.err != nil {
		return res.err.Error()
	}
	return fmt.Sprintf("backend replied %d", res.status)
}

// primaryFor returns the live backend that owns key on the ring.
func (f *Fleet) primaryFor(key string) *Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.backends[f.ring.Owner(key)]
}
