package server

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
)

// checkpointReq performs a bodyful request against the checkpoint endpoint.
func checkpointReq(t *testing.T, ts *httptest.Server, method, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestCheckpointMigrationOverHTTP is the wire-level migration path between
// two real servers: export a live job from the source, import the envelope
// bytes verbatim on the destination, finish it there byte-identical to an
// uninterrupted synchronous run, then release the source as migrated.
func TestCheckpointMigrationOverHTTP(t *testing.T) {
	// Frequent snapshot boundaries so the export preempt lands quickly.
	_, tsSrc := newTestServer(t, Options{
		Workers: 1, JobsDir: t.TempDir(), CheckpointCycles: 500,
	})
	_, tsDst := newTestServer(t, jobsOpts(t))
	_, tsRef := newTestServer(t, Options{Workers: 1})

	// A one-core collect at scale 2: about 61k simulated cycles.
	const collectReq = `{"Bench":"jlisp","Scale":2,"Config":{"Cores":1}}`
	resp, info := postJob(t, tsSrc, `{"Collect":`+collectReq+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := info.ID

	// Export: preempts the job at its next snapshot boundary and returns a
	// portable envelope, while the source keeps running the job.
	eresp, raw := get(t, tsSrc, "/v1/jobs/"+id+"/checkpoint?wait=30s")
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d: %s", eresp.StatusCode, raw)
	}
	var env jobs.ExportedJob
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("export envelope undecodable: %v", err)
	}
	if env.ID != id || env.State.Terminal() {
		t.Fatalf("export envelope: id=%s state=%s", env.ID, env.State)
	}
	if err := env.Validate(); err != nil {
		t.Fatalf("exported envelope fails validation: %v", err)
	}

	// Import the bytes verbatim on the destination: 201 with a receipt that
	// echoes the imported position for the driver's pre-release check.
	iresp, rbody := checkpointReq(t, tsDst, http.MethodPut, "/v1/jobs/"+id+"/checkpoint", raw)
	if iresp.StatusCode != http.StatusCreated {
		t.Fatalf("import status = %d: %s", iresp.StatusCode, rbody)
	}
	var receipt struct {
		Info     jobs.Info
		Accepted bool
		Cycle    int64
		SnapCRC  uint32
	}
	if err := json.Unmarshal(rbody, &receipt); err != nil {
		t.Fatal(err)
	}
	if !receipt.Accepted || receipt.Info.ID != id || receipt.Cycle != env.Cycle || receipt.SnapCRC != env.SnapCRC {
		t.Fatalf("receipt = %+v, want an echo of the imported envelope", receipt)
	}

	// Re-importing is idempotent: 200, not adopted twice.
	iresp2, rbody2 := checkpointReq(t, tsDst, http.MethodPut, "/v1/jobs/"+id+"/checkpoint", raw)
	if iresp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate import status = %d: %s", iresp2.StatusCode, rbody2)
	}

	// The migrated job finishes on the destination byte-identical to an
	// uninterrupted synchronous collect.
	rresp, got := awaitResult(t, tsDst, id)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", rresp.StatusCode, got)
	}
	sresp, want := post(t, tsRef, "/v1/collect", collectReq)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("reference collect status = %d", sresp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("migrated result differs from uninterrupted synchronous run")
	}

	// Release the source: the job ends as migrated (never cancelled), its
	// result is gone with a pointer to resubmit, and release is idempotent.
	dresp, dbody := checkpointReq(t, tsSrc, http.MethodDelete, "/v1/jobs/"+id+"/checkpoint", nil)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("release status = %d: %s", dresp.StatusCode, dbody)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		sresp, sbody := get(t, tsSrc, "/v1/jobs/"+id)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("source job info: %d", sresp.StatusCode)
		}
		var si jobs.Info
		if err := json.Unmarshal(sbody, &si); err != nil {
			t.Fatal(err)
		}
		if si.State == jobs.StateMigrated {
			break
		}
		if si.State.Terminal() {
			t.Fatalf("released job ended as %s, want migrated", si.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("released job never reached migrated (state %s)", si.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gresp, _ := get(t, tsSrc, "/v1/jobs/"+id+"/result"); gresp.StatusCode != http.StatusGone {
		t.Fatalf("migrated result status = %d, want 410", gresp.StatusCode)
	}
	if dresp2, _ := checkpointReq(t, tsSrc, http.MethodDelete, "/v1/jobs/"+id+"/checkpoint", nil); dresp2.StatusCode != http.StatusOK {
		t.Fatalf("second release status = %d, want idempotent 200", dresp2.StatusCode)
	}
	// A released job is terminal at the source: no further export.
	if eresp2, _ := get(t, tsSrc, "/v1/jobs/"+id+"/checkpoint"); eresp2.StatusCode != http.StatusConflict {
		t.Fatalf("export after release = %d, want 409", eresp2.StatusCode)
	}
}

// liveEnvelope builds a genuine mid-run checkpoint envelope client-side, the
// way a migration source would ship it.
func liveEnvelope(t *testing.T, seed int64) *jobs.ExportedJob {
	t.Helper()
	req := hwgc.CollectRequest{Bench: "jlisp", Seed: seed, Config: hwgc.Config{Cores: 2}}
	if _, err := req.Key(); err != nil {
		t.Fatal(err)
	}
	canonical, err := req.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := hwgc.StartCollectRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := rc.StepCycles(200); err != nil || done {
		t.Fatalf("step: done=%v err=%v", done, err)
	}
	snap, err := rc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return &jobs.ExportedJob{
		V:        2,
		ID:       hwgc.KeyBytes(canonical),
		Kind:     jobs.KindCollect,
		Request:  canonical,
		State:    jobs.StateCheckpointed,
		Cycle:    rc.Cycle(),
		Snapshot: snap,
		SnapCRC:  crc32.ChecksumIEEE(snap),
	}
}

// TestCheckpointEndpointValidation covers the failure surface of the
// checkpoint endpoint: absent jobs, malformed waits, and corrupt or
// mismatched envelopes, none of which may change local state.
func TestCheckpointEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))

	if resp, _ := get(t, ts, "/v1/jobs/absent/checkpoint"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("export of absent job = %d, want 404", resp.StatusCode)
	}
	if resp, _ := checkpointReq(t, ts, http.MethodDelete, "/v1/jobs/absent/checkpoint", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("release of absent job = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/jobs/absent/checkpoint?wait=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait = %d, want 400", resp.StatusCode)
	}
	if resp, _ := checkpointReq(t, ts, http.MethodPatch, "/v1/jobs/absent/checkpoint", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PATCH checkpoint = %d, want 405", resp.StatusCode)
	}

	env := liveEnvelope(t, 21)
	marshal := func(e *jobs.ExportedJob) []byte {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Envelope/URL ID mismatch.
	if resp, body := checkpointReq(t, ts, http.MethodPut, "/v1/jobs/somewhere-else/checkpoint", marshal(env)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ID mismatch import = %d (%s), want 400", resp.StatusCode, body)
	}
	// Corrupt snapshot (CRC breaks).
	corrupt := *env
	corrupt.Snapshot = append([]byte(nil), env.Snapshot...)
	corrupt.Snapshot[len(corrupt.Snapshot)/2] ^= 0x40
	if resp, body := checkpointReq(t, ts, http.MethodPut, "/v1/jobs/"+env.ID+"/checkpoint", marshal(&corrupt)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt import = %d (%s), want 400", resp.StatusCode, body)
	}
	// Truncated/garbage body.
	if resp, _ := checkpointReq(t, ts, http.MethodPut, "/v1/jobs/"+env.ID+"/checkpoint", []byte(`{"V":1`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage import = %d, want 400", resp.StatusCode)
	}
	// Nothing above left a job behind.
	if resp, body := get(t, ts, "/v1/jobs/"+env.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected imports created job: %d %s", resp.StatusCode, body)
	}

	// A clean import works. Once the job is done, export still answers — a
	// finished-but-unfetched result migrates as a StateDone envelope — but
	// release refuses: a done job is not migrated state.
	if resp, body := checkpointReq(t, ts, http.MethodPut, "/v1/jobs/"+env.ID+"/checkpoint", marshal(env)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean import = %d: %s", resp.StatusCode, body)
	}
	if resp, body := awaitResult(t, ts, env.ID); resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("imported job result = %d", resp.StatusCode)
	}
	eresp, eraw := get(t, ts, "/v1/jobs/"+env.ID+"/checkpoint")
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("export of done job = %d, want a done envelope", eresp.StatusCode)
	}
	var done jobs.ExportedJob
	if err := json.Unmarshal(eraw, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || len(done.ResultBody) == 0 {
		t.Errorf("done export: state=%s result=%dB, want the final result body", done.State, len(done.ResultBody))
	}
	if resp, _ := checkpointReq(t, ts, http.MethodDelete, "/v1/jobs/"+env.ID+"/checkpoint", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("release of done job = %d, want 409", resp.StatusCode)
	}
}
