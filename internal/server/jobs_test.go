package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwgc/internal/jobs"
)

// jobsOpts returns server options with the async job tier mounted on a
// fresh temp directory.
func jobsOpts(t *testing.T) Options {
	t.Helper()
	return Options{Workers: 1, JobsDir: t.TempDir()}
}

// postJob submits a job body and decodes the Info response.
func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, jobs.Info) {
	t.Helper()
	resp, data := post(t, ts, "/v1/jobs", body)
	var info jobs.Info
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatalf("decoding job info: %v: %s", err, data)
		}
	}
	return resp, info
}

// awaitResult polls GET /v1/jobs/{id}/result until it stops answering 202.
func awaitResult(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data := get(t, ts, "/v1/jobs/"+id+"/result")
		if resp.StatusCode != http.StatusAccepted {
			return resp, data
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still not done: %s", id, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsEndpointLifecycle submits an async collect job over HTTP and
// checks the whole surface: 202 + Location on submit, 200 dedup on
// resubmit, status polling, and a final result byte-identical to the
// synchronous /v1/collect path for the same request.
func TestJobsEndpointLifecycle(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	const req = `{"Bench":"jlisp","Config":{"Cores":2}}`

	resp, info := postJob(t, ts, `{"Collect":`+req+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if info.ID == "" || info.Kind != jobs.KindCollect || info.State.Terminal() {
		t.Fatalf("submit info = %+v", info)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+info.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Resubmission dedupes onto the same job: 200, same ID.
	resp2, info2 := postJob(t, ts, `{"Collect":`+req+`}`)
	if resp2.StatusCode != http.StatusOK || info2.ID != info.ID {
		t.Fatalf("resubmit: status %d id %s, want 200 + %s", resp2.StatusCode, info2.ID, info.ID)
	}

	// Status endpoint serves the Info.
	respS, dataS := get(t, ts, "/v1/jobs/"+info.ID)
	if respS.StatusCode != http.StatusOK || !bytes.Contains(dataS, []byte(info.ID)) {
		t.Fatalf("status: %d %s", respS.StatusCode, dataS)
	}

	respR, got := awaitResult(t, ts, info.ID)
	if respR.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", respR.StatusCode, got)
	}
	if respR.Header.Get("X-Cache-Key") != info.ID {
		t.Fatalf("X-Cache-Key = %q, want job id", respR.Header.Get("X-Cache-Key"))
	}
	respSync, want := post(t, ts, "/v1/collect", req)
	if respSync.StatusCode != http.StatusOK {
		t.Fatalf("sync status = %d", respSync.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("async result differs from synchronous path")
	}
	// The job result fed the cache, so the sync request above was a hit.
	if respSync.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("sync X-Cache = %q, want HIT from job result", respSync.Header.Get("X-Cache"))
	}
}

func TestJobsEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	for name, body := range map[string]string{
		"neither":       `{}`,
		"both":          `{"Collect":{"Bench":"jlisp","Config":{}},"Sweep":{"Bench":"jlisp","Cores":[1],"Config":{}}}`,
		"unknown class": `{"Collect":{"Bench":"jlisp","Config":{}},"Class":"nope"}`,
		"bad request":   `{"Collect":{"Config":{}}}`,
		"not json":      `walrus`,
		"sweep":         `{"Sweep":{"Bench":"jlisp","Cores":[1],"Config":{}}}`,
	} {
		resp, data := post(t, ts, "/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
		// A sweep is no job: the 400 points at the sweep endpoints.
		if name == "sweep" && !(bytes.Contains(data, []byte("/v1/sweep,")) && bytes.Contains(data, []byte("/v1/sweeps"))) {
			t.Errorf("sweep job 400 does not name /v1/sweep and /v1/sweeps: %s", data)
		}
	}
	// Unknown job resources.
	for _, path := range []string{"/v1/jobs/absent", "/v1/jobs/absent/result", "/v1/jobs/absent/events", "/v1/jobs/x/y/z"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	// GET on the collection endpoint lists jobs (empty table here).
	if resp, data := get(t, ts, "/v1/jobs"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/jobs: status %d (%s), want 200", resp.StatusCode, data)
	}
	// Other methods on the collection endpoint are method errors.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: status %d, want 405", resp.StatusCode)
	}
}

// TestJobsEndpointCancel cancels a queued job over HTTP: DELETE answers
// with the cancelled Info, the result endpoint reports 410, and a second
// DELETE is a 409 conflict.
func TestJobsEndpointCancel(t *testing.T) {
	opts := jobsOpts(t)
	opts.Workers = 1
	s, ts := newTestServer(t, opts)

	// Wedge the single runner with a scaled-up collect so the next job
	// stays queued; same class as the victim, so no preemption interferes.
	_, long := postJob(t, ts, `{"Collect":{"Bench":"search","Scale":8,"Config":{"Cores":1}}}`)
	waitJobState(t, s, long.ID, jobs.StateRunning)

	_, victim := postJob(t, ts, `{"Collect":{"Bench":"jlisp","Seed":5,"Config":{}}}`)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.State != jobs.StateCancelled {
		t.Fatalf("cancel: status %d state %s", resp.StatusCode, info.State)
	}

	if respR, _ := get(t, ts, "/v1/jobs/"+victim.ID+"/result"); respR.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: status %d, want 410", respR.StatusCode)
	}
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", resp2.StatusCode)
	}
}

// waitJobState polls the manager until the job reaches state.
func waitJobState(t *testing.T, s *Server, id string, state jobs.State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := s.jobs.Get(id)
		if err == nil && info.State == state {
			return
		}
		if err == nil && info.State.Terminal() && !state.Terminal() {
			t.Fatalf("job %s reached terminal %s waiting for %s (err %q)", id, info.State, state, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsEventsSSE reads the Server-Sent-Events stream end to end: it must
// frame every lifecycle event with id/event/data lines and close after the
// terminal event.
func TestJobsEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	_, info := postJob(t, ts, `{"Collect":{"Bench":"jlisp","Seed":9,"Config":{}}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			states = append(states, strings.TrimPrefix(line, "event: "))
		}
	}
	// The stream ends at the terminal event, so Scan terminating (EOF) is
	// the success condition; the state sequence must start queued and end
	// done.
	if len(states) < 2 || states[0] != string(jobs.StateQueued) || states[len(states)-1] != string(jobs.StateDone) {
		t.Fatalf("SSE states = %v", states)
	}
}

// TestJobsHealthAndMetrics checks the job tier's observability surface:
// /healthz reports the backlog and /metrics carries the gcjobs_ series next
// to the gcserved_ ones.
func TestJobsHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	_, info := postJob(t, ts, `{"Collect":{"Bench":"jlisp","Seed":3,"Config":{}}}`)
	awaitResult(t, ts, info.ID)

	respH, bodyH := get(t, ts, "/healthz")
	if respH.StatusCode != http.StatusOK || !bytes.Contains(bodyH, []byte("JobsQueued")) {
		t.Fatalf("healthz: %d %s", respH.StatusCode, bodyH)
	}
	_, bodyM := get(t, ts, "/metrics")
	for _, want := range []string{
		"gcserved_requests_total",
		"gcjobs_submitted_total 1",
		"gcjobs_completed_total 1",
		`gcjobs_queue_depth{class="batch"} 0`,
		"gcjobs_wal_replays_total 1",
	} {
		if !bytes.Contains(bodyM, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobsSubmitAfterShutdown checks drain semantics at the HTTP layer:
// once Shutdown begins, job submissions get 503.
func TestJobsSubmitAfterShutdown(t *testing.T) {
	s, err := New(jobsOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, ts, "/v1/jobs", `{"Collect":{"Bench":"jlisp","Config":{}}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// TestOptionsDefaultNormalization is the satellite regression: negative
// cache bounds must normalize to the defaults exactly like zero values do
// for every other knob — a sign error must not disable the cache.
func TestOptionsDefaultNormalization(t *testing.T) {
	d := Options{CacheEntries: -1, CacheBytes: -5, Workers: -2, QueueDepth: -3}.withDefaults()
	if d.CacheEntries != 1024 {
		t.Errorf("CacheEntries = %d, want 1024", d.CacheEntries)
	}
	if d.CacheBytes != 64<<20 {
		t.Errorf("CacheBytes = %d, want %d", d.CacheBytes, 64<<20)
	}
	if d.Workers <= 0 || d.QueueDepth != 64 {
		t.Errorf("other defaults regressed: %+v", d)
	}
	z := Options{}.withDefaults()
	if z.CacheEntries != 1024 || z.CacheBytes != 64<<20 {
		t.Errorf("zero-value defaults: %+v", z)
	}
}
