package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hwgc"
	"hwgc/internal/jobs"
)

// release DELETEs /v1/jobs/{id}/checkpoint and returns the status and body.
func release(t *testing.T, ts *httptest.Server, id string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id+"/checkpoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestJobsReleaseOverHTTP covers the release half of a fleet job move: a
// running job released here ends as migrated at its next slice boundary,
// the request still waiting for it gets a 503 the fleet retries on the new
// owner, its result is gone, and a second release is idempotent. Absent
// and finished jobs, and the endpoint's other methods, are refused.
func TestJobsReleaseOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, JobsDir: t.TempDir(), SliceCycles: syncSliceCycles})
	// javac scale 8 on one core runs ~3.7M cycles, long enough to be
	// released mid-run.
	const long = `{"Bench":"javac","Scale":8,"Config":{"Cores":1}}`
	key, err := (&hwgc.CollectRequest{Bench: "javac", Scale: 8, Config: hwgc.Config{Cores: 1}}).Key()
	if err != nil {
		t.Fatal(err)
	}
	replied := postAsync(t, ts, "/v1/collect", long)
	waitJobState(t, s, key, jobs.StateRunning)

	if code, body := release(t, ts, key); code != http.StatusOK {
		t.Fatalf("release: status %d: %s", code, body)
	}
	waitJobState(t, s, key, jobs.StateMigrated)
	r, ok := <-replied
	if !ok {
		t.Fatal("released sync collect got no response")
	}
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("released sync collect answered %d: %s, want 503", r.code, r.body)
	}
	if resp, _ := get(t, ts, "/v1/jobs/"+key+"/result"); resp.StatusCode != http.StatusGone {
		t.Fatalf("migrated result: status %d, want 410", resp.StatusCode)
	}
	if code, _ := release(t, ts, key); code != http.StatusOK {
		t.Fatalf("second release: status %d, want idempotent 200", code)
	}

	if code, _ := release(t, ts, "absent"); code != http.StatusNotFound {
		t.Errorf("release of an absent job: status %d, want 404", code)
	}
	resp, info := postJob(t, ts, `{"Collect":{"Bench":"jlisp","Config":{"Cores":2}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitJobState(t, s, info.ID, jobs.StateDone)
	if code, body := release(t, ts, info.ID); code != http.StatusConflict {
		t.Errorf("release of a done job: status %d: %s, want 409", code, body)
	}
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		req, err := http.NewRequest(method, ts.URL+"/v1/jobs/"+info.ID+"/checkpoint", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodDelete {
			t.Errorf("%s checkpoint: status %d Allow %q, want 405 + DELETE", method, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	var got jobs.Info
	if _, data := get(t, ts, "/v1/jobs/"+key); json.Unmarshal(data, &got) != nil || got.State != jobs.StateMigrated {
		t.Fatalf("released job info = %+v, want migrated", got)
	}
}
