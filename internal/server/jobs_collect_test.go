package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
)

// slowCollect is the request of the sync-collect job tests: search at 4
// cores runs ~150k cycles, so with syncSliceCycles it crosses dozens of
// slice boundaries and stays running long after its first one.
const slowCollect = `{"Bench":"search","Config":{"Cores":4}}`

const syncSliceCycles = 2000

// slowCollectKey returns the content key of slowCollect and the byte-exact
// response of an uninterrupted library run.
func slowCollectKey(t *testing.T) (string, []byte) {
	t.Helper()
	req := hwgc.CollectRequest{Bench: "search", Config: hwgc.Config{Cores: 4}}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key, libraryBody(t, req)
}

// libraryBody is hwgc.NewCollectResponse's encoding of req.
func libraryBody(t *testing.T, req hwgc.CollectRequest) []byte {
	t.Helper()
	resp, err := hwgc.NewCollectResponse(req)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := resp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// scrape returns the server's /metrics text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	return string(body)
}

// reply is one HTTP response read in full.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// postAsync POSTs body on its own goroutine and delivers the response on
// the returned channel; a transport failure is reported with t.Error and
// closes the channel without a value.
func postAsync(t *testing.T, ts *httptest.Server, path, body string) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		defer close(out)
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return
		}
		out <- reply{resp.StatusCode, resp.Header, data}
	}()
	return out
}

// preemptSyncCollect POSTs slowCollect to a server on dir, shuts the server
// down once the job has passed a slice boundary, and checks that the
// waiting request was answered 503 "preempted by shutdown" with the job
// left queued in the WAL.
func preemptSyncCollect(t *testing.T, dir, key string) {
	t.Helper()
	s, err := New(Options{Workers: 1, JobsDir: dir, SliceCycles: syncSliceCycles})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	replied := postAsync(t, ts, "/v1/collect", slowCollect)
	for deadline := time.Now().Add(30 * time.Second); ; {
		if info, err := s.Jobs().Get(key); err == nil && info.Cycle > 0 {
			break
		}
		select {
		case r, ok := <-replied:
			if ok {
				t.Fatalf("sync collect answered %d before any slice boundary: %s", r.code, r.body)
			}
			t.Fatal("sync collect got no response")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("sync collect never reached a slice boundary")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r, ok := <-replied
	if !ok {
		t.Fatal("preempted sync collect got no response")
	}
	if r.code != http.StatusServiceUnavailable || !strings.Contains(string(r.body), "preempted by shutdown") {
		t.Fatalf("preempted sync collect answered %d %s, want 503 + preempted by shutdown", r.code, r.body)
	}
	if info, err := s.Jobs().Get(key); err != nil || info.State != jobs.StateQueued {
		t.Fatalf("preempted job is %+v (err %v), want queued", info, err)
	}
	if _, ok := s.Cache().Get(key); ok {
		t.Fatal("preempted collect was cached")
	}
}

// TestJobsSyncCollectPreemptResume is the crash/restart e2e of the sync
// path: Shutdown (what gcserved's SIGTERM handler calls) stops a sync
// collect at a slice boundary, and a second server on the same JobsDir
// re-runs it from the WAL and answers the same request byte-identically to
// an uninterrupted run. The directory holds only the WAL throughout.
func TestJobsSyncCollectPreemptResume(t *testing.T) {
	dir := t.TempDir()
	key, want := slowCollectKey(t)
	preemptSyncCollect(t, dir, key)

	_, ts := newTestServer(t, Options{Workers: 1, JobsDir: dir})
	resp, got := post(t, ts, "/v1/collect", slowCollect)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed request: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed response differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if v := scrapeValue(t, scrape(t, ts), "gcjobs_fresh_starts_total"); v != 1 {
		t.Fatalf("gcjobs_fresh_starts_total = %d, want 1 (the re-run)", v)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 || filepath.Base(files[0]) != "jobs.wal" {
		t.Fatalf("jobs directory holds %v, want only jobs.wal", files)
	}
}

// TestJobsSyncRestartRecovery checks that a restarted server finishes a
// preempted sync collect with no client request: the job re-runs from the
// WAL and its result lands in the cache through the result hook.
func TestJobsSyncRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	key, want := slowCollectKey(t)
	preemptSyncCollect(t, dir, key)

	s, _ := newTestServer(t, Options{Workers: 1, JobsDir: dir})
	for deadline := time.Now().Add(30 * time.Second); ; {
		if body, ok := s.Cache().Get(key); ok {
			if !bytes.Equal(body, want) {
				t.Fatal("recovered response differs from uninterrupted run")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered job never reached the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsSyncDedupesOntoAsync submits a collect job and, while it runs,
// POSTs the same request synchronously: the sync request must dedupe onto
// the running job (one execution) and return the job's exact bytes.
func TestJobsSyncDedupesOntoAsync(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JobsDir: t.TempDir(), SliceCycles: syncSliceCycles})
	key, want := slowCollectKey(t)

	resp, info := postJob(t, ts, `{"Collect":`+slowCollect+`}`)
	if resp.StatusCode != http.StatusAccepted || info.ID != key {
		t.Fatalf("submit: status %d id %s, want 202 + %s", resp.StatusCode, info.ID, key)
	}
	replied := postAsync(t, ts, "/v1/collect", slowCollect)
	jobResp, jobBody := awaitResult(t, ts, key)
	r, ok := <-replied
	if !ok {
		t.Fatal("sync collect got no response")
	}
	if r.code != http.StatusOK || r.header.Get("X-Cache") != "MISS" {
		t.Fatalf("sync collect: status %d X-Cache %q: %s", r.code, r.header.Get("X-Cache"), r.body)
	}
	if jobResp.StatusCode != http.StatusOK {
		t.Fatalf("job result: status %d: %s", jobResp.StatusCode, jobBody)
	}
	if !bytes.Equal(r.body, jobBody) || !bytes.Equal(r.body, want) {
		t.Fatal("sync and async bodies differ from each other or from the in-process path")
	}
	text := scrape(t, ts)
	for name, want := range map[string]int64{
		"gcjobs_submitted_total":    1,
		"gcjobs_deduped_total":      1,
		"gcjobs_fresh_starts_total": 1,
		"gcjobs_completed_total":    1,
	} {
		if v := scrapeValue(t, text, name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// TestJobsCollectsObservedOnce checks that the scenario series count every
// collection the job tier runs exactly once, whether it arrived as a sync
// /v1/collect miss or through POST /v1/jobs.
func TestJobsCollectsObservedOnce(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	const series = `gcserved_numa_collections_total{placement="naive"}`
	numa := func(seed int) string {
		return fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{"Cores":4,"NUMADomains":2}}`, seed)
	}

	if resp, body := post(t, ts, "/v1/collect", numa(1)); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("sync NUMA collect: status %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	text := scrape(t, ts)
	if v := scrapeValue(t, text, series); v != 1 {
		t.Fatalf("after a sync miss %s = %d, want 1", series, v)
	}
	if v := scrapeValue(t, text, "gcjobs_completed_total"); v != 1 {
		t.Fatalf("sync miss did not run as a job: gcjobs_completed_total = %d", v)
	}

	resp, info := postJob(t, ts, `{"Collect":`+numa(2)+`}`)
	if resp.StatusCode != http.StatusAccepted || info.Kind != jobs.KindCollect {
		t.Fatalf("async NUMA submit: status %d info %+v", resp.StatusCode, info)
	}
	if resp, body := awaitResult(t, ts, info.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("async NUMA result: status %d: %s", resp.StatusCode, body)
	}
	if v := scrapeValue(t, scrape(t, ts), series); v != 2 {
		t.Fatalf("after an async job %s = %d, want 2", series, v)
	}
}

// TestJobsSyncNotStarvedByAsync fills the only job runner and its queue
// with long async jobs in the sync path's own class, then POSTs a distinct
// sync collect: its job goes to the front of the class queue, ahead of the
// queued async jobs, and the running async job yields to it at its next
// slice boundary, so the request is answered within its Timeout while
// async work is still pending.
func TestJobsSyncNotStarvedByAsync(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, JobsDir: t.TempDir(),
		SliceCycles: syncSliceCycles, Timeout: 30 * time.Second})
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		resp, info := postJob(t, ts, fmt.Sprintf(`{"Collect":{"Bench":"search","Seed":%d,"Config":{"Cores":4}}}`, seed))
		if resp.StatusCode != http.StatusAccepted || info.Class != s.Jobs().DefaultClass() {
			t.Fatalf("async submit %d: status %d class %q", seed, resp.StatusCode, info.Class)
		}
		ids = append(ids, info.ID)
	}
	resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync collect behind async jobs: status %d: %s", resp.StatusCode, body)
	}
	// A sync job queued behind the async ones (FIFO in one class) could
	// only have finished after all of them.
	if info, err := s.Jobs().Get(ids[len(ids)-1]); err != nil || info.State.Terminal() {
		t.Fatalf("last async job is %s (err %v) when the sync collect returned: the sync job waited for it", info.State, err)
	}
	if v := scrapeValue(t, scrape(t, ts), "gcjobs_submitted_total"); v != 4 {
		t.Fatalf("gcjobs_submitted_total = %d, want 4 (the sync collect ran as a job)", v)
	}
}
