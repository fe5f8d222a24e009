package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwgc/internal/server"
)

// startJobsBackend boots one real gcserved with the async job tier enabled.
func startJobsBackend(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Options{
		Workers: 1,
		Timeout: 30 * time.Second,
		JobsDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// jobInfoBody is the subset of the backend's job Info the tests decode.
type jobInfoBody struct {
	ID    string
	State string
	Class string
}

// TestFleetJobsEndToEnd drives the async job lifecycle through the fleet:
// submit routes by the content key (= the job ID the backend mints), dedup
// works across spellings, the result is byte-identical to the synchronous
// path, the job's result warms the owner's cache for later sync traffic,
// and the SSE stream proxies through to a terminal event.
func TestFleetJobsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test boots real simulators")
	}

	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := startJobsBackend(t)
		urls = append(urls, ts.URL)
	}
	f, err := New(Options{
		Backends:       urls,
		HealthInterval: -1,
		Timeout:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	client := &http.Client{Timeout: time.Minute}
	request := func(method, url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}

	// Submit: 202, Location header, and the serving backend is the ring
	// owner of the job's content key.
	submit := []byte(`{"Collect":{"Bench":"jlisp","Seed":11,"Config":{"Cores":2}}}`)
	res, body := request(http.MethodPost, fleet.URL+"/v1/jobs", submit)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", res.StatusCode, body)
	}
	var info jobInfoBody
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" {
		t.Fatalf("submit returned no job ID: %s", body)
	}
	if loc := res.Header.Get("Location"); loc != "/v1/jobs/"+info.ID {
		t.Errorf("Location = %q, want %q", loc, "/v1/jobs/"+info.ID)
	}
	owner := f.primaryFor(info.ID)
	if owner == nil {
		t.Fatal("no ring owner for job id")
	}
	if got := res.Header.Get("X-Fleet-Backend"); got != owner.id {
		t.Errorf("submit served by %q, want ring owner %q", got, owner.id)
	}

	// Dedup: a differently-spelled but equivalent submission lands on the
	// same backend and returns 200 with the same job.
	respelled := []byte(`{"Collect":{"Seed":11,"Config":{"Cores":2},"Bench":"jlisp"}}`)
	res, body = request(http.MethodPost, fleet.URL+"/v1/jobs", respelled)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("dedup submit status %d: %s", res.StatusCode, body)
	}
	var dup jobInfoBody
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != info.ID {
		t.Errorf("dedup minted a different job: %q vs %q", dup.ID, info.ID)
	}
	if got := res.Header.Get("X-Fleet-Backend"); got != owner.id {
		t.Errorf("dedup served by %q, want %q", got, owner.id)
	}

	// Poll the result through the fleet until done.
	var result []byte
	waitFor(t, 10*time.Second, func() bool {
		r, b := request(http.MethodGet, fleet.URL+"/v1/jobs/"+info.ID+"/result", nil)
		if r.StatusCode == http.StatusOK {
			result = b
			return true
		}
		return false
	})
	if len(result) == 0 {
		t.Fatal("empty job result")
	}

	// Status through the fleet: terminal done.
	res, body = request(http.MethodGet, fleet.URL+"/v1/jobs/"+info.ID, nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status fetch: %d: %s", res.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "done" {
		t.Fatalf("job state %q, want done", info.State)
	}

	// The sync path for the same request must route to the same owner and
	// hit the cache the job's result already warmed — byte-identically.
	res, syncBody := request(http.MethodPost, fleet.URL+"/v1/collect",
		[]byte(`{"Bench":"jlisp","Seed":11,"Config":{"Cores":2}}`))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("sync collect status %d: %s", res.StatusCode, syncBody)
	}
	if !bytes.Equal(syncBody, result) {
		t.Error("sync result is not byte-identical to the async job result")
	}
	if got := res.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("sync collect after job completion: X-Cache = %q, want HIT", got)
	}
	if got := res.Header.Get("X-Fleet-Backend"); got != owner.id {
		t.Errorf("sync collect served by %q, want job owner %q", got, owner.id)
	}

	// SSE through the proxy: the stream replays history and closes at the
	// terminal event.
	res, events := request(http.MethodGet, fleet.URL+"/v1/jobs/"+info.ID+"/events", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("events status %d: %s", res.StatusCode, events)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events Content-Type = %q", ct)
	}
	text := string(events)
	if !strings.Contains(text, "event: queued") || !strings.Contains(text, "event: done") {
		t.Errorf("event stream missing lifecycle events:\n%s", text)
	}

	// Cancel-after-done races resolve authoritatively: DELETE on a terminal
	// job proxies the backend's 409.
	res, body = request(http.MethodDelete, fleet.URL+"/v1/jobs/"+info.ID, nil)
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on done job: status %d, want 409: %s", res.StatusCode, body)
	}
}

// TestFleetJobsValidation covers the fleet-local and proxied error paths.
func TestFleetJobsValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test boots real simulators")
	}
	_, ts := startJobsBackend(t)
	f, err := New(Options{Backends: []string{ts.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	client := &http.Client{Timeout: time.Minute}
	status := func(method, path string, body []byte) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, fleet.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		want   int
	}{
		{"submit requires POST", http.MethodGet, "/v1/jobs", nil, http.StatusMethodNotAllowed},
		{"neither kind", http.MethodPost, "/v1/jobs", []byte(`{}`), http.StatusBadRequest},
		{"both kinds", http.MethodPost, "/v1/jobs",
			[]byte(`{"Collect":{"Bench":"jlisp"},"Sweep":{"Bench":"db","Cores":[1]}}`), http.StatusBadRequest},
		{"not json", http.MethodPost, "/v1/jobs", []byte(`nope`), http.StatusBadRequest},
		{"unknown class proxies backend 400", http.MethodPost, "/v1/jobs",
			[]byte(`{"Collect":{"Bench":"jlisp","Config":{"Cores":2}},"Class":"nope"}`), http.StatusBadRequest},
		{"unknown job", http.MethodGet, "/v1/jobs/feedbeef", nil, http.StatusNotFound},
		{"unknown job result", http.MethodGet, "/v1/jobs/feedbeef/result", nil, http.StatusNotFound},
		{"unknown job events", http.MethodGet, "/v1/jobs/feedbeef/events", nil, http.StatusNotFound},
		{"unknown job cancel", http.MethodDelete, "/v1/jobs/feedbeef", nil, http.StatusNotFound},
		{"bad subresource", http.MethodGet, "/v1/jobs/feedbeef/nope", nil, http.StatusNotFound},
		{"deep path", http.MethodGet, "/v1/jobs/a/b/c", nil, http.StatusNotFound},
		{"id requires GET or DELETE", http.MethodPost, "/v1/jobs/feedbeef", nil, http.StatusMethodNotAllowed},
		{"events require GET", http.MethodDelete, "/v1/jobs/feedbeef/events", nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		if got := status(tc.method, tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}
