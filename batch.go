package hwgc

import (
	"encoding/json"
	"fmt"
	"io"

	"hwgc/internal/plan"
)

// This file defines the batch request/response encoding behind
// POST /v1/batch, served identically by one gcserved (internal/server runs
// every item's collect points through its own cache and worker pool) and
// by the gcfleet coordinator (internal/cluster shards the points across
// backends by content key and gathers the results). Because both tiers
// build the response from the same deterministic per-item bodies and the
// same encoder, a fleet batch reply is byte-identical to a single-node
// reply for the same items.

// MaxBatchItems bounds the number of items one batch request may carry.
const MaxBatchItems = 256

// BatchItem is one entry of a batch request: exactly one of Collect and
// Sweep must be set.
type BatchItem struct {
	Collect *CollectRequest `json:",omitempty"`
	Sweep   *SweepRequest   `json:",omitempty"`
}

// Points canonicalizes the item in place and returns its content key and
// the collect points it runs: a collect item is its own single point, and a
// sweep item's key is the sweep key over the sweep's points in core order.
// Both tiers run every point on their collect path, so a batch sweep item
// shares cache entries, jobs and fleet owners with the equivalent
// collects.
func (it *BatchItem) Points() (key string, pts []SweepPoint, err error) {
	switch {
	case it.Collect == nil && it.Sweep == nil:
		return "", nil, fmt.Errorf("hwgc: batch item needs a Collect or Sweep request")
	case it.Collect != nil && it.Sweep != nil:
		return "", nil, fmt.Errorf("hwgc: batch item has both a Collect and a Sweep request")
	case it.Collect != nil:
		body, err := it.Collect.CanonicalJSON()
		if err != nil {
			return "", nil, err
		}
		key = KeyBytes(body)
		return key, []SweepPoint{{Key: key, Canonical: body, Req: *it.Collect}}, nil
	default:
		if key, err = it.Sweep.Key(); err != nil {
			return "", nil, err
		}
		pts, err = it.Sweep.Points()
		return key, pts, err
	}
}

// BatchRequest is the POST /v1/batch body: a list of collect/sweep items
// executed with bounded concurrency and reported individually, so one bad
// or slow item never fails the whole batch.
type BatchRequest struct {
	Items []BatchItem
}

// Validate checks the batch shape (item count bounds). Per-item validation
// is deliberately deferred to execution time so an invalid item becomes a
// per-item failure, not a whole-batch rejection.
func (r *BatchRequest) Validate() error {
	if len(r.Items) == 0 {
		return fmt.Errorf("hwgc: batch request has no items")
	}
	if len(r.Items) > MaxBatchItems {
		return fmt.Errorf("hwgc: batch request has %d items, max %d", len(r.Items), MaxBatchItems)
	}
	return nil
}

// DecodeBatchRequest strictly decodes and shape-validates a batch request.
func DecodeBatchRequest(r io.Reader) (*BatchRequest, error) {
	var req BatchRequest
	if err := plan.DecodeStrict(r, &req); err != nil {
		return nil, fmt.Errorf("hwgc: decoding batch request: %w", err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// BatchItemResult reports the outcome of one batch item. Status carries
// the HTTP status the item would have received from the single-request
// endpoint (200, 400, 429, 500, 503, 504); Body is set only on success.
type BatchItemResult struct {
	Index  int
	Key    string `json:",omitempty"`
	Status int
	Error  string          `json:",omitempty"`
	Body   json.RawMessage `json:",omitempty"`
}

// BatchResponse is the POST /v1/batch reply: one result per request item,
// in request order, with partial failures reported per item.
type BatchResponse struct {
	OK     int
	Failed int
	Items  []BatchItemResult
}

// Tally recounts OK/Failed from the item statuses (an item is OK iff its
// status is 200).
func (r *BatchResponse) Tally() {
	r.OK, r.Failed = 0, 0
	for i := range r.Items {
		if r.Items[i].Status == 200 {
			r.OK++
		} else {
			r.Failed++
		}
	}
}

// Encode writes the response in the service's wire format: indented JSON
// with a trailing newline, deterministic byte for byte.
func (r *BatchResponse) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeBatchResponse strictly decodes a batch response (used by gcload and
// the fleet tests to check replies).
func DecodeBatchResponse(r io.Reader) (*BatchResponse, error) {
	var resp BatchResponse
	if err := plan.DecodeStrict(r, &resp); err != nil {
		return nil, fmt.Errorf("hwgc: decoding batch response: %w", err)
	}
	return &resp, nil
}
