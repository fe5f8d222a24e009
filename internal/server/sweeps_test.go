package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
	"hwgc/internal/sweep"
)

// sweepBody builds a POST /v1/sweeps body over a small Cores axis.
func sweepBody(seed int64, cores ...int64) string {
	vals := make([]string, len(cores))
	for i, c := range cores {
		vals[i] = strconv.FormatInt(c, 10)
	}
	return fmt.Sprintf(
		`{"Space":{"Benches":["jlisp"],"Seeds":[%d],"Base":{},"Axes":[{"Field":"Cores","Values":[%s]}]}}`,
		seed, strings.Join(vals, ","))
}

// postSweep submits a sweep body and decodes the Info response.
func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, sweep.Info) {
	t.Helper()
	resp, data := post(t, ts, "/v1/sweeps", body)
	var info sweep.Info
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatalf("decoding sweep info: %v: %s", err, data)
		}
	}
	return resp, info
}

// awaitSweep polls GET /v1/sweeps/{id} until the sweep leaves running.
func awaitSweep(t *testing.T, ts *httptest.Server, id string) sweep.Info {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data := get(t, ts, "/v1/sweeps/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status: %d %s", resp.StatusCode, data)
		}
		var info sweep.Info
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatalf("decoding sweep info: %v: %s", err, data)
		}
		if info.State != sweep.StateRunning {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still running: %s", id, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	ID    int64
	Event string
	Data  string
}

// readSSE parses frames off an event stream until EOF or, when maxEvents is
// positive, until that many frames have been read (simulating a client that
// drops the connection mid-stream).
func readSSE(t *testing.T, r *http.Response, maxEvents int) []sseEvent {
	t.Helper()
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			events = append(events, cur)
			cur = sseEvent{}
			if maxEvents > 0 && len(events) >= maxEvents {
				return events
			}
		}
	}
	return events
}

// getSSE opens an event stream with an optional Last-Event-ID resume
// position. The caller owns resp.Body.
func getSSE(t *testing.T, ts *httptest.Server, path string, lastEventID int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSweepsEndpointLifecycle drives a sweep over the full HTTP surface:
// 202 + Location on submit, idempotent 200 on resubmit (same ID, no new
// planning), status polling to completion, and a ranked frontier in the
// final Info.
func TestSweepsEndpointLifecycle(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	body := sweepBody(11, 1, 2, 4)

	resp, info := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if info.ID == "" || info.Points != 3 || info.State != sweep.StateRunning {
		t.Fatalf("submit info = %+v", info)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+info.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Resubmitting the identical space dedupes onto the running sweep.
	resp2, info2 := postSweep(t, ts, body)
	if resp2.StatusCode != http.StatusOK || info2.ID != info.ID {
		t.Fatalf("resubmit: status %d id %s, want 200 + %s", resp2.StatusCode, info2.ID, info.ID)
	}

	done := awaitSweep(t, ts, info.ID)
	if done.State != sweep.StateDone || done.Completed != 3 || done.Failed != 0 {
		t.Fatalf("final info = %+v", done)
	}
	if len(done.Frontier) != 3 || done.Frontier[0].Rank != 1 {
		t.Fatalf("frontier = %+v", done.Frontier)
	}

	// Resubmission after completion still returns the finished sweep.
	resp3, info3 := postSweep(t, ts, body)
	if resp3.StatusCode != http.StatusOK || info3.ID != info.ID || info3.State != sweep.StateDone {
		t.Fatalf("post-done resubmit: status %d info %+v", resp3.StatusCode, info3)
	}

	// The sweep tier shows up on /metrics next to the job tier.
	_, bodyM := get(t, ts, "/metrics")
	for _, want := range []string{
		"gcsweep_sweeps_submitted_total 1",
		"gcsweep_sweeps_completed_total 1",
		"gcsweep_points_planned_total 3",
		"gcsweep_points_completed_total 3",
	} {
		if !bytes.Contains(bodyM, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSweepsBarrierModeAxis is the concurrent-collection acceptance check
// at the serving tier: a sweep over the BarrierMode enum axis (crossed with
// Cores) runs end to end through gcserved and two independent servers
// produce the identical ranked frontier — same point keys, same ranks, same
// objective values — because every point is a deterministic simulation and
// the planner's canonical order is fixed.
func TestSweepsBarrierModeAxis(t *testing.T) {
	body := `{"Space":{"Benches":["jlisp"],"Seeds":[42],` +
		`"Base":{"MutatorOps":1099511627776},` +
		`"Axes":[{"Field":"BarrierMode","Strings":["none","satb","incupdate"]},` +
		`{"Field":"Cores","Values":[1,4]}]}}`

	run := func() sweep.Info {
		_, ts := newTestServer(t, jobsOpts(t))
		resp, info := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", resp.StatusCode)
		}
		if info.Points != 6 {
			t.Fatalf("planned %d points, want 6 (3 barrier modes x 2 core counts)", info.Points)
		}
		done := awaitSweep(t, ts, info.ID)
		if done.State != sweep.StateDone || done.Completed != 6 || done.Failed != 0 {
			t.Fatalf("final info = %+v", done)
		}
		if len(done.Frontier) == 0 {
			t.Fatal("no frontier")
		}
		return done
	}

	a, b := run(), run()
	if len(a.Frontier) != len(b.Frontier) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(a.Frontier), len(b.Frontier))
	}
	for i := range a.Frontier {
		fa, fb := a.Frontier[i], b.Frontier[i]
		if fa.Key != fb.Key || fa.Rank != fb.Rank || fa.Value != fb.Value || fa.Cycles != fb.Cycles {
			t.Errorf("frontier[%d] differs across servers: %+v vs %+v", i, fa, fb)
		}
	}
}

// TestSweepsMemoryHierarchyAxes is the same cross-server contract for the
// memory-hierarchy extension: a sweep crossing the NUMAPlacement enum axis
// with NUMADomains and the L1Sets cache gate runs end to end through
// gcserved, and two independent servers produce the identical ranked
// frontier. The NUMADomains axis includes 0, so the flat machine competes
// in the same frontier as the NUMA points; the zero point's key must
// canonicalize identically on both servers for the dedup to line up.
func TestSweepsMemoryHierarchyAxes(t *testing.T) {
	body := `{"Space":{"Benches":["jlisp"],"Seeds":[42],` +
		`"Base":{"Cores":4},` +
		`"Axes":[{"Field":"NUMAPlacement","Strings":["naive","local"]},` +
		`{"Field":"NUMADomains","Values":[0,2]},` +
		`{"Field":"L1Sets","Values":[0,16]}]}}`

	run := func() sweep.Info {
		_, ts := newTestServer(t, jobsOpts(t))
		resp, info := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", resp.StatusCode)
		}
		// 2 placements x 2 domain counts x 2 cache gates = 8 raw points,
		// but placement is a dead knob at NUMADomains=0: both spellings
		// canonicalize to the flat machine, deduping 8 down to 6.
		if info.Points != 6 {
			t.Fatalf("planned %d points, want 6 (dead placement knob dedups the flat half)", info.Points)
		}
		done := awaitSweep(t, ts, info.ID)
		if done.State != sweep.StateDone || done.Completed != 6 || done.Failed != 0 {
			t.Fatalf("final info = %+v", done)
		}
		if len(done.Frontier) == 0 {
			t.Fatal("no frontier")
		}
		return done
	}

	a, b := run(), run()
	if len(a.Frontier) != len(b.Frontier) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(a.Frontier), len(b.Frontier))
	}
	for i := range a.Frontier {
		fa, fb := a.Frontier[i], b.Frontier[i]
		if fa.Key != fb.Key || fa.Rank != fb.Rank || fa.Value != fb.Value || fa.Cycles != fb.Cycles {
			t.Errorf("frontier[%d] differs across servers: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestSweepsEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"no space":    {`{}`, http.StatusBadRequest},
		"bad class":   {`{"Space":{"Benches":["jlisp"],"Base":{}},"Class":"nope"}`, http.StatusBadRequest},
		"bad bench":   {`{"Space":{"Benches":["nope"],"Base":{}}}`, http.StatusBadRequest},
		"bad axis":    {`{"Space":{"Benches":["jlisp"],"Base":{},"Axes":[{"Field":"Nope","Values":[1]}]}}`, http.StatusBadRequest},
		"unknown key": {`{"Space":{"Benches":["jlisp"],"Base":{}},"Bogus":1}`, http.StatusBadRequest},
	} {
		resp, data := post(t, ts, "/v1/sweeps", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.want, data)
		}
	}

	// Method and routing checks.
	respG, _ := get(t, ts, "/v1/sweeps")
	if respG.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweeps: status %d, want 405", respG.StatusCode)
	}
	resp404, _ := get(t, ts, "/v1/sweeps/feedfeed")
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d, want 404", resp404.StatusCode)
	}
	respSub, _ := get(t, ts, "/v1/sweeps/feedfeed/bogus")
	if respSub.StatusCode != http.StatusNotFound {
		t.Errorf("unknown subresource: status %d, want 404", respSub.StatusCode)
	}
}

// TestSweepsMaxScale checks that the server-wide scale limit covers sweep
// spaces exactly like single requests.
func TestSweepsMaxScale(t *testing.T) {
	opts := jobsOpts(t)
	opts.MaxScale = 1
	_, ts := newTestServer(t, opts)
	resp, data := post(t, ts, "/v1/sweeps",
		`{"Space":{"Benches":["jlisp"],"Scales":[4],"Base":{}}}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("exceeds server limit")) {
		t.Fatalf("over-scale sweep: %d %s", resp.StatusCode, data)
	}
}

// TestSweepsRecoverDropsUnbuildableSpace: a jobs directory that holds a
// sweep accepted before its benchmark's largest buildable scale was
// enforced (cup at scale 15) still opens. That sweep is dropped, and the
// sweep recorded after it is recovered.
func TestSweepsRecoverDropsUnbuildableSpace(t *testing.T) {
	dir := t.TempDir()
	m, err := jobs.Open(jobs.Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	atBound := hwgc.SweepSpace{Benches: []string{"cup"}, Scales: []int{14}}
	canonical, err := atBound.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The canonical bytes an older server stored for the cup scale-15 space.
	pastBound := bytes.Replace(canonical, []byte(`"Scales":[14]`), []byte(`"Scales":[15]`), 1)
	if bytes.Equal(pastBound, canonical) {
		t.Fatalf("no Scales field in %s", canonical)
	}
	kept := hwgc.SweepSpace{Benches: []string{"jlisp"}}
	keptID, err := kept.Key()
	if err != nil {
		t.Fatal(err)
	}
	keptCanonical, err := kept.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		id    string
		space []byte
	}{{"unbuildable", pastBound}, {keptID, keptCanonical}} {
		if err := m.AppendAux("sweep", rec.id, []byte(`{"Space":`+string(rec.space)+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 1, JobsDir: dir})
	if resp, data := get(t, ts, "/v1/sweeps/unbuildable"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("dropped sweep: %d %s, want 404", resp.StatusCode, data)
	}
	if resp, data := get(t, ts, "/v1/sweeps/"+keptID); resp.StatusCode != http.StatusOK {
		t.Errorf("recovered sweep: %d %s, want 200", resp.StatusCode, data)
	}
}

// TestSweepsSubmitAfterShutdown: once Shutdown begins, a sweep submission
// is a 503, worded as every other submission refused by a draining server.
func TestSweepsSubmitAfterShutdown(t *testing.T) {
	s, err := New(jobsOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts, "/v1/sweeps", `{"Space":{"Benches":["jlisp"],"Base":{}}}`)
	if want := `{"Error":"server is shutting down"}` + "\n"; resp.StatusCode != http.StatusServiceUnavailable || string(data) != want {
		t.Fatalf("sweep after shutdown: %d %s, want 503 %s", resp.StatusCode, data, want)
	}
}

// TestSweepsCancelHTTP covers DELETE: cancelling a live sweep, then the 409
// on a second cancel, and 404 for unknown IDs.
func TestSweepsCancelHTTP(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	_, info := postSweep(t, ts, sweepBody(13, 1, 2, 4, 8, 16, 32, 48, 64))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}
	final := awaitSweep(t, ts, info.ID)
	if final.State != sweep.StateCancelled {
		t.Fatalf("state after cancel = %s", final.State)
	}

	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", resp2.StatusCode)
	}

	req404, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/feedfeed", nil)
	resp3, err := http.DefaultClient.Do(req404)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d, want 404", resp3.StatusCode)
	}
}

// TestSweepEventsSSEResume is the Last-Event-ID regression test: a client
// that disconnects mid-stream and reconnects with its last seen id must
// receive exactly the events after that id — no duplicates, no gaps.
func TestSweepEventsSSEResume(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	_, info := postSweep(t, ts, sweepBody(17, 1, 2, 4))
	awaitSweep(t, ts, info.ID)

	// First connection: read two events, then drop the connection
	// mid-stream the way a flaky client would.
	resp := getSSE(t, ts, "/v1/sweeps/"+info.ID+"/events", 0)
	head := readSSE(t, resp, 2)
	resp.Body.Close()
	if len(head) != 2 || head[0].Event != "planned" || head[0].ID != 1 {
		t.Fatalf("head events = %+v", head)
	}

	// Reconnect with Last-Event-ID: the replay must resume strictly after
	// the last seen sequence number.
	resp2 := getSSE(t, ts, "/v1/sweeps/"+info.ID+"/events", head[1].ID)
	tail := readSSE(t, resp2, 0)
	resp2.Body.Close()
	if len(tail) == 0 {
		t.Fatal("no events after resume")
	}
	seen := head[1].ID
	for _, ev := range tail {
		if ev.ID != seen+1 {
			t.Fatalf("resume gap or duplicate: got seq %d after %d (tail %+v)", ev.ID, seen, tail)
		}
		seen = ev.ID
	}
	last := tail[len(tail)-1]
	if last.Event != sweep.StateDone {
		t.Fatalf("stream ended on %q, want %q", last.Event, sweep.StateDone)
	}
	var done sweep.Event
	if err := json.Unmarshal([]byte(last.Data), &done); err != nil {
		t.Fatalf("decoding done event: %v: %s", err, last.Data)
	}
	if done.Completed != 3 || len(done.Frontier) != 3 {
		t.Fatalf("done event = %+v", done)
	}

	// A full replay and head+tail must cover the same sequence exactly.
	resp3 := getSSE(t, ts, "/v1/sweeps/"+info.ID+"/events", 0)
	full := readSSE(t, resp3, 0)
	resp3.Body.Close()
	if want, got := len(full), len(head)+len(tail); want != got {
		t.Fatalf("head+tail has %d events, full replay %d", got, want)
	}
}

// TestJobsEventsSSEResume mirrors the sweep resume regression on the job
// stream: reconnecting with Last-Event-ID skips already-delivered events.
func TestJobsEventsSSEResume(t *testing.T) {
	_, ts := newTestServer(t, jobsOpts(t))
	_, info := postJob(t, ts, `{"Collect":{"Bench":"jlisp","Seed":21,"Config":{}}}`)
	awaitResult(t, ts, info.ID)

	resp := getSSE(t, ts, "/v1/jobs/"+info.ID+"/events", 0)
	full := readSSE(t, resp, 0)
	resp.Body.Close()
	if len(full) < 3 {
		t.Fatalf("full stream = %+v, want at least queued/running/done", full)
	}

	// Disconnect after the first event; resume must deliver exactly the
	// rest of the history.
	resp2 := getSSE(t, ts, "/v1/jobs/"+info.ID+"/events", full[0].ID)
	tail := readSSE(t, resp2, 0)
	resp2.Body.Close()
	if len(tail) != len(full)-1 {
		t.Fatalf("resumed stream has %d events, want %d", len(tail), len(full)-1)
	}
	for i, ev := range tail {
		if ev.ID != full[i+1].ID || ev.Event != full[i+1].Event {
			t.Fatalf("resumed event %d = %+v, want %+v", i, ev, full[i+1])
		}
	}
}
