package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"hwgc"
)

func compactJSON(t *testing.T, in []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, in); err != nil {
		t.Fatalf("compacting %q: %v", in, err)
	}
	return buf.Bytes()
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := map[time.Duration]int{
		500 * time.Millisecond:  1, // the regression: must not round to 0
		time.Millisecond:        1,
		time.Second:             1,
		1500 * time.Millisecond: 2,
		2 * time.Second:         2,
	}
	for d, want := range cases {
		if got := retryAfterSeconds(d); got != want {
			t.Errorf("retryAfterSeconds(%s) = %d, want %d", d, got, want)
		}
	}
}

// TestSubSecondRetryAfterHeader is the end-to-end regression test for the
// Retry-After rounding bug: a 500ms hint used to be emitted as
// "Retry-After: 0", which clients read as "retry immediately".
func TestSubSecondRetryAfterHeader(t *testing.T) {
	_, ts := slowServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 500 * time.Millisecond}, 200*time.Millisecond)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rejected int
		retryHdr string
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{}}`, i+1)
			resp, _ := post(t, ts, "/v1/collect", body)
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				rejected++
				retryHdr = resp.Header.Get("Retry-After")
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatal("no request was rejected; cannot check the Retry-After header")
	}
	if retryHdr != "1" {
		t.Fatalf("Retry-After = %q for a 500ms hint, want \"1\"", retryHdr)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	single := `{"Bench":"jlisp","Config":{"Cores":2}}`
	respS, bodyS := post(t, ts, "/v1/collect", single)
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("single collect status %d: %s", respS.StatusCode, bodyS)
	}

	batch := `{"Items":[
		{"Collect":{"Bench":"jlisp","Config":{"Cores":2}}},
		{"Sweep":{"Bench":"jlisp","Cores":[1,2],"Config":{}}},
		{},
		{"Collect":{"Bench":"jlisp","Scale":1,"Seed":42,"Config":{"Cores":2}}}
	]}`
	resp, body := post(t, ts, "/v1/batch", batch)
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("batch status %d, want 207 (one invalid item): %s", resp.StatusCode, body)
	}
	br, err := hwgc.DecodeBatchResponse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if br.OK != 3 || br.Failed != 1 || len(br.Items) != 4 {
		t.Fatalf("batch tally OK=%d Failed=%d items=%d, want 3/1/4", br.OK, br.Failed, len(br.Items))
	}
	for i, it := range br.Items {
		if it.Index != i {
			t.Errorf("item %d reports index %d; results must stay in request order", i, it.Index)
		}
	}
	if br.Items[2].Status != http.StatusBadRequest || br.Items[2].Error == "" {
		t.Errorf("invalid item result: %+v, want per-item 400", br.Items[2])
	}
	// Item 0 ran the same simulation as the single request: the same JSON
	// document (the batch encoder re-indents nested bodies, so compare
	// compacted bytes).
	if !bytes.Equal(compactJSON(t, br.Items[0].Body), compactJSON(t, bodyS)) {
		t.Error("batch item body differs from the single-request response body")
	}
	// Item 3 is the spelled-out equivalent of item 0: same key, same body.
	if br.Items[3].Key != br.Items[0].Key || !bytes.Equal(br.Items[3].Body, br.Items[0].Body) {
		t.Error("equivalent batch items did not canonicalize to the same key/body")
	}
	if s.metrics.batchItems.Load() != 4 || s.metrics.batchFailed.Load() != 1 {
		t.Errorf("batch metrics items=%d failed=%d, want 4/1",
			s.metrics.batchItems.Load(), s.metrics.batchFailed.Load())
	}

	// An all-good batch is deterministic and returns 200.
	good := `{"Items":[{"Collect":{"Bench":"jlisp","Config":{"Cores":2}}}]}`
	r1, b1 := post(t, ts, "/v1/batch", good)
	r2, b2 := post(t, ts, "/v1/batch", good)
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("good batch statuses %d/%d, want 200", r1.StatusCode, r2.StatusCode)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("repeated batch responses are not byte-identical")
	}
}

func TestBatchRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxScale: 4})
	for name, body := range map[string]string{
		"no items":    `{}`,
		"empty items": `{"Items":[]}`,
		"not json":    `nope`,
	} {
		if resp, data := post(t, ts, "/v1/batch", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	if resp, _ := get(t, ts, "/v1/batch"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: status %d, want 405", resp.StatusCode)
	}
	// Over-scale items fail per item, not whole batch.
	resp, body := post(t, ts, "/v1/batch",
		`{"Items":[{"Collect":{"Bench":"jlisp","Scale":9,"Config":{}}},{"Collect":{"Bench":"jlisp","Config":{}}}]}`)
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("status %d, want 207: %s", resp.StatusCode, body)
	}
	br, err := hwgc.DecodeBatchResponse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != http.StatusBadRequest || br.Items[1].Status != http.StatusOK {
		t.Fatalf("per-item statuses %d/%d, want 400/200", br.Items[0].Status, br.Items[1].Status)
	}
	// The item is worded as a single request over the limit is.
	if want := "scale 9 exceeds server limit 4"; br.Items[0].Error != want {
		t.Errorf("over-scale item error %q, want %q", br.Items[0].Error, want)
	}
}

// TestBatchItemBackpressure drives the queue full with external traffic and
// verifies a batch item that cannot be admitted is reported as a per-item
// 429, not a hung request or a whole-batch failure.
func TestBatchItemBackpressure(t *testing.T) {
	_, ts := slowServer(t, Options{Workers: 1, QueueDepth: 1}, 400*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one occupies the worker, one fills the queue
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, ts, "/v1/collect", fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{}}`, i+1))
		}(i)
		time.Sleep(60 * time.Millisecond)
	}

	resp, body := post(t, ts, "/v1/batch", `{"Items":[{"Collect":{"Bench":"jlisp","Seed":99,"Config":{}}}]}`)
	wg.Wait()
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("status %d, want 207: %s", resp.StatusCode, body)
	}
	br, err := hwgc.DecodeBatchResponse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != http.StatusTooManyRequests {
		t.Fatalf("item status %d, want 429: %+v", br.Items[0].Status, br.Items[0])
	}
}
