package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
)

// newTestServer starts a server with opts plus an httptest front end and
// tears both down (draining) at cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := get(t, ts, "/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wl struct {
		Workloads []string
		Baselines []string
	}
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) == 0 || len(wl.Baselines) == 0 {
		t.Fatalf("empty listing: %s", body)
	}
	found := false
	for _, w := range wl.Workloads {
		if w == "jlisp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("jlisp missing from %v", wl.Workloads)
	}
	if resp, _ := post(t, ts, "/v1/workloads", "{}"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/workloads: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 5})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status   string
		Workers  int
		QueueCap int
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueCap != 5 {
		t.Fatalf("health body wrong: %s", body)
	}
}

func TestCollectCachesByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	req := `{"Bench":"jlisp","Config":{"Cores":4}}`
	resp1, body1 := post(t, ts, "/v1/collect", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	var cr hwgc.CollectResponse
	if err := json.Unmarshal(body1, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Bench != "jlisp" || cr.Key == "" || cr.Result.Stats.Cycles <= 0 {
		t.Fatalf("response content wrong: %+v", cr)
	}
	// Canonicalization: defaults were resolved.
	if cr.Scale != 1 || cr.Seed != 42 {
		t.Fatalf("defaults not canonicalized: scale %d seed %d", cr.Scale, cr.Seed)
	}

	// The same request again: served from cache, byte-identical.
	resp2, body2 := post(t, ts, "/v1/collect", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit not byte-identical")
	}

	// A spelled-out but equivalent request canonicalizes to the same key.
	resp3, body3 := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Scale":1,"Seed":42,"Config":{"Cores":4}}`)
	if got := resp3.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("equivalent request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("equivalent request response differs")
	}
}

func TestCollectInlinePlan(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := `{"Plan":{"Objs":[{"Pi":1,"Delta":1,"Ptrs":[1],"Data":[7]},{"Pi":0,"Delta":2,"Ptrs":[],"Data":[8,9]}],"Roots":[0]},"Config":{"Cores":2},"Verify":true}`
	resp, body := post(t, ts, "/v1/collect", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr hwgc.CollectResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Bench != "plan" || cr.Result.LiveObjects != 2 {
		t.Fatalf("plan response wrong: %+v", cr)
	}
}

func TestCollectRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxScale: 4})
	cases := map[string]string{
		"not json":      `¯\_(ツ)_/¯`,
		"unknown field": `{"Bench":"jlisp","Config":{},"Bogus":1}`,
		"no workload":   `{"Config":{}}`,
		"both":          `{"Bench":"jlisp","Plan":{"Objs":[{"Pi":0,"Delta":0,"Ptrs":[],"Data":[]}],"Roots":[]},"Config":{}}`,
		"unknown bench": `{"Bench":"doom","Config":{}}`,
		"bad config":    `{"Bench":"jlisp","Config":{"Cores":9999}}`,
		"bad plan":      `{"Plan":{"Objs":[{"Pi":3,"Delta":0,"Ptrs":[],"Data":[]}],"Roots":[]},"Config":{}}`,
		"over scale":    `{"Bench":"jlisp","Scale":5,"Config":{}}`,
	}
	for name, body := range cases {
		resp, data := post(t, ts, "/v1/collect", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", name, data)
		}
	}
	if resp, _ := get(t, ts, "/v1/collect"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/collect: status %d, want 405", resp.StatusCode)
	}
}

func TestSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := `{"Bench":"jlisp","Cores":[1,2],"Config":{}}`
	resp, body := post(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr hwgc.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 2 || len(sr.Results[0].Stats.PerCore) != 1 || len(sr.Results[1].Stats.PerCore) != 2 {
		t.Fatalf("sweep results wrong: %+v", sr)
	}
	// 1-core GC must not be faster than 2-core on the same heap... but more
	// to the point here: both ran and the sweep is cached.
	resp2, body2 := post(t, ts, "/v1/sweep", req)
	if resp2.Header.Get("X-Cache") != "HIT" || !bytes.Equal(body, body2) {
		t.Fatal("sweep repeat not served byte-identically from cache")
	}
	if resp, _ := post(t, ts, "/v1/sweep", `{"Cores":[1],"Config":{}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep without bench: status %d, want 400", resp.StatusCode)
	}
}

// TestSweepRunsCollectPoints: a sweep's points run on the collect path
// under their collect keys, so they fill and read the same cache entries as
// /v1/collect; X-Cache is HIT only when every point hit, and X-Cache-Key is
// the sweep key. The body is the library's NewSweepResponse encoding.
func TestSweepRunsCollectPoints(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	sweepReq := hwgc.SweepRequest{Bench: "jlisp", Cores: []int{1, 2, 4}}
	key, _ := sweepReq.Key()
	lib, err := hwgc.NewSweepResponse(sweepReq)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := lib.Encode(&want); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts, "/v1/sweep", `{"Bench":"jlisp","Cores":[1,2,4],"Config":{}}`)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("sweep: status %d, body differs from NewSweepResponse: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "MISS" || resp.Header.Get("X-Cache-Key") != key {
		t.Fatalf("sweep headers X-Cache %q X-Cache-Key %q, want MISS and the sweep key", resp.Header.Get("X-Cache"), resp.Header.Get("X-Cache-Key"))
	}
	// A point is the collect of its core count: already cached.
	if resp, _ := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`); resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("collect of a sweep point: X-Cache %q, want HIT", resp.Header.Get("X-Cache"))
	}
	// One new point makes the sweep a MISS; the shared points still hit.
	hits := s.metrics.cacheHits.Load()
	if resp, _ := post(t, ts, "/v1/sweep", `{"Bench":"jlisp","Cores":[4,8],"Config":{}}`); resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("partly cached sweep: X-Cache %q, want MISS", resp.Header.Get("X-Cache"))
	}
	if got := s.metrics.cacheHits.Load() - hits; got != 1 {
		t.Fatalf("partly cached sweep: %d point hits, want 1", got)
	}
	if resp, _ := post(t, ts, "/v1/sweep", `{"Bench":"jlisp","Cores":[1,2,4],"Config":{}}`); resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("repeated sweep: X-Cache %q, want HIT", resp.Header.Get("X-Cache"))
	}
}

// TestSweepPointsBoundedByWorkers: at most Workers points of one request
// are in flight, so a sweep (or a batch of sweeps) never takes more queue
// slots than the pool can run: with one worker and a one-slot queue none
// of their points is rejected.
func TestSweepPointsBoundedByWorkers(t *testing.T) {
	_, ts := slowServer(t, Options{Workers: 1, QueueDepth: 1}, 20*time.Millisecond)
	if resp, body := post(t, ts, "/v1/sweep", `{"Bench":"jlisp","Config":{}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("5-point sweep: status %d: %s", resp.StatusCode, body)
	}
	batch := `{"Items":[
		{"Sweep":{"Bench":"jlisp","Seed":3,"Cores":[1,2,4]}},
		{"Collect":{"Bench":"jlisp","Seed":4,"Config":{}}},
		{"Sweep":{"Bench":"jlisp","Seed":5,"Cores":[1,2]}},
		{"Collect":{"Bench":"jlisp","Seed":6,"Config":{}}}
	]}`
	resp, body := post(t, ts, "/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch of sweeps: status %d: %s", resp.StatusCode, body)
	}
}

// TestSweepReportsFirstFailingPoint: a failed sweep answers with its first
// failing point in core order, with that point's status; a 429 keeps its
// Retry-After hint.
func TestSweepReportsFirstFailingPoint(t *testing.T) {
	gate := make(chan struct{})
	s, err := newServer(Options{Workers: 1, QueueDepth: 1}, func(req hwgc.CollectRequest) ([]byte, error) {
		switch req.Config.Cores {
		case 2:
			return nil, fmt.Errorf("boom at 2 cores")
		case 8:
			return nil, fmt.Errorf("boom at 8 cores")
		case 16:
			<-gate // holds the runner
		}
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(context.Background())
	})
	resp, body := post(t, ts, "/v1/sweep", `{"Bench":"jlisp","Cores":[1,8,2],"Config":{}}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "boom at 8 cores") {
		t.Fatalf("status %d body %s, want 500 from the 8-core point", resp.StatusCode, body)
	}

	// Hold the runner and fill the queue slot with the 2-core job, so the
	// 4-core point is refused by the full queue while the 2-core point
	// joins the queued job and fails when it runs.
	collect := func(cores int) <-chan reply {
		return postAsync(t, ts, "/v1/collect", fmt.Sprintf(`{"Bench":"jlisp","Config":{"Cores":%d}}`, cores))
	}
	waitPool := func(what string, ok func(jobs.PoolStats) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(s.jobs.Pool()); {
			if time.Now().After(deadline) {
				t.Fatalf("pool never had %s: %+v", what, s.jobs.Pool())
			}
			time.Sleep(time.Millisecond)
		}
	}
	held := []<-chan reply{collect(16)}
	waitPool("a running job", func(p jobs.PoolStats) bool { return p.Running == 1 })
	held = append(held, collect(2))
	waitPool("a full queue", func(p jobs.PoolStats) bool { return p.SyncQueued == 1 })
	sweep := postAsync(t, ts, "/v1/sweep", `{"Bench":"jlisp","Cores":[4,2],"Config":{}}`)
	// With one worker the points run one at a time, in core order: once
	// the 2-core point has joined the queued job, the 4-core point has
	// been refused.
	for deadline := time.Now().Add(10 * time.Second); ; {
		var m bytes.Buffer
		_ = s.jobs.Metrics().Write(&m)
		if scrapeValue(t, m.String(), "gcjobs_deduped_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the 2-core point never joined the queued job")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	r, ok := <-sweep
	if !ok || r.code != http.StatusTooManyRequests || r.header.Get("Retry-After") == "" {
		t.Fatalf("status %d (Retry-After %q) body %s, want 429 with Retry-After from the 4-core point",
			r.code, r.header.Get("Retry-After"), r.body)
	}
	for _, r := range held {
		<-r
	}
	resp, body = post(t, ts, "/v1/batch", `{"Items":[{"Sweep":{"Bench":"jlisp","Cores":[1,2,8]}}]}`)
	br, err := hwgc.DecodeBatchResponse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if it := br.Items[0]; it.Status != http.StatusInternalServerError || !strings.Contains(it.Error, "boom at 2 cores") {
		t.Fatalf("batch sweep item %+v, want 500 from the 2-core point", it)
	}
}

// TestCollectNegativeStartupShutdown: a request with StartupCycles and
// ShutdownCycles of -1 runs with neither phase, as the library does, and
// its body's Key is the cache key it is served under.
func TestCollectNegativeStartupShutdown(t *testing.T) {
	for _, opts := range []Options{{Workers: 1}, jobsOpts(t)} {
		_, ts := newTestServer(t, opts)
		resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2,"StartupCycles":-1,"ShutdownCycles":-1}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr hwgc.CollectResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Key != resp.Header.Get("X-Cache-Key") {
			t.Errorf("body Key %s, X-Cache-Key %s", cr.Key, resp.Header.Get("X-Cache-Key"))
		}
		want, err := hwgc.RunBenchmark("jlisp", 1, hwgc.DefaultSeed, hwgc.Config{Cores: 2, StartupCycles: -1, ShutdownCycles: -1}, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := cr.Result.Stats.DiffFields(&want.Stats); d != nil {
			t.Errorf("served Stats differ from RunBenchmark: %v", d)
		}
	}
}

// TestCollectLatencyBound: a latency-bound collect is served, not failed as
// a livelock: the default bound grows with the configured memory latency.
func TestCollectLatencyBound(t *testing.T) {
	for _, opts := range []Options{{Workers: 1}, jobsOpts(t)} {
		_, ts := newTestServer(t, opts)
		resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":1,"ExtraMemLatency":1000}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr hwgc.CollectResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Result.Stats.Cycles != 6_605_173 {
			t.Errorf("cycles = %d, want 6605173", cr.Result.Stats.Cycles)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 7})
	post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`)
	post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`)
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`gcserved_requests_total{path="/v1/collect"} 2`,
		"gcserved_cache_hits_total 1",
		"gcserved_cache_misses_total 1",
		"gcserved_queue_capacity 7",
		"gcserved_queue_depth 0",
		"gcserved_queue_full_total 0",
		"gcserved_jobs_done_total 1",
		`gcserved_request_seconds{quantile="0.99"}`,
		"gcserved_request_seconds_count 2",
		`gcserved_responses_total{code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// Concurrent-collection scenarios must surface in the scrape: one series
// per barrier mode plus the aggregated barrier and floating-garbage
// counters, fed by the job manager's result hook without a jobs directory
// (TestJobsCollectsObservedOnce covers it with one).
func TestMetricsConcurrentCollections(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{
		`{"Bench":"jlisp","Config":{"Cores":2,"MutatorOps":1099511627776,"BarrierMode":"satb"}}`,
		`{"Bench":"jlisp","Config":{"Cores":2,"MutatorOps":1099511627776,"BarrierMode":"incupdate"}}`,
		`{"Bench":"jlisp","Config":{"Cores":2,"MutatorOps":1099511627776}}`,
		`{"Bench":"jlisp","Config":{"Cores":2}}`, // stop-the-world: not counted
	} {
		if resp, b := post(t, ts, "/v1/collect", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("collect %s: status %d: %s", body, resp.StatusCode, b)
		}
	}
	_, body := get(t, ts, "/metrics")
	text := string(body)
	for _, want := range []string{
		`gcserved_concurrent_collections_total{barrier="incupdate"} 1`,
		`gcserved_concurrent_collections_total{barrier="none"} 1`,
		`gcserved_concurrent_collections_total{barrier="satb"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	for _, counter := range []string{"gcserved_barrier_invocations_total", "gcserved_barrier_cycles_total"} {
		v := scrapeValue(t, text, counter)
		if v <= 0 {
			t.Errorf("%s = %d, want > 0", counter, v)
		}
	}
	if v := scrapeValue(t, text, "gcserved_floating_garbage_words_total"); v < 0 {
		t.Errorf("gcserved_floating_garbage_words_total = %d", v)
	}
}

// scrapeValue extracts a single un-labeled counter value from Prometheus
// exposition text.
func scrapeValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// slowServer returns a server whose collect jobs block for d (fake results,
// no simulation), for deterministic backpressure and deadline tests.
func slowServer(t *testing.T, opts Options, d time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s, err := newServer(opts, func(req hwgc.CollectRequest) ([]byte, error) {
		time.Sleep(d)
		return []byte(fmt.Sprintf(`{"Bench":%q,"Seed":%d}`, req.Bench, req.Seed)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func TestQueueFullBackpressure(t *testing.T) {
	s, ts := slowServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second}, 200*time.Millisecond)

	const n = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses = map[int]int{}
		retryHdr string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{}}`, i+1)
			resp, data := post(t, ts, "/v1/collect", body)
			mu.Lock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests {
				retryHdr = resp.Header.Get("Retry-After")
			}
			_ = data
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no request was rejected by the full queue: %v", statuses)
	}
	if statuses[http.StatusOK]+statuses[http.StatusTooManyRequests] != n {
		t.Fatalf("unexpected statuses: %v", statuses)
	}
	if retryHdr != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", retryHdr)
	}
	if got := s.metrics.queueFull.Load(); got != int64(statuses[http.StatusTooManyRequests]) {
		t.Fatalf("queue_full_total %d != %d rejected requests", got, statuses[http.StatusTooManyRequests])
	}
}

func TestRequestDeadline(t *testing.T) {
	s, ts := slowServer(t, Options{Workers: 1, Timeout: 50 * time.Millisecond}, 300*time.Millisecond)
	resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if s.metrics.timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}
}
