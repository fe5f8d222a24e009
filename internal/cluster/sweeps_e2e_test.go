package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/sweep"
)

// postSweepFleet submits a sweep body and decodes the Info reply.
func postSweepFleet(t *testing.T, client *http.Client, url, body string) (*http.Response, sweep.Info) {
	t.Helper()
	res, err := client.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	var info sweep.Info
	if res.StatusCode == http.StatusOK || res.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
			t.Fatalf("decoding sweep info: %v: %s", err, buf.Bytes())
		}
	}
	return res, info
}

// awaitSweepInfo polls GET {url}/v1/sweeps/{id} until the sweep leaves
// running, invoking tick (when non-nil) between polls.
func awaitSweepInfo(t *testing.T, client *http.Client, url, id string, deadline time.Duration, tick func()) sweep.Info {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		res, err := client.Get(url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("sweep status: %d %s", res.StatusCode, buf.Bytes())
		}
		var info sweep.Info
		if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
			t.Fatalf("decoding sweep info: %v: %s", err, buf.Bytes())
		}
		if info.State != sweep.StateRunning {
			return info
		}
		if time.Now().After(end) {
			t.Fatalf("sweep %s still running: %s", id, buf.Bytes())
		}
		if tick != nil {
			tick()
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// frontierBytes re-marshals a frontier compactly for exact comparison.
func frontierBytes(t *testing.T, fr []sweep.FrontierEntry) []byte {
	t.Helper()
	b, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSweepEndToEnd drives a sweep through the fleet against three
// real backends: the proxy plans the space, routes points by content key,
// aggregates the frontier, serves the SSE stream with Last-Event-ID resume,
// and dedupes an identical resubmission onto the same sweep.
func TestFleetSweepEndToEnd(t *testing.T) {
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
		SweepPoll:      10 * time.Millisecond,
		Timeout:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()
	client := &http.Client{Timeout: time.Minute}

	const body = `{"Space":{"Benches":["jlisp"],"Seeds":[31],"Base":{},"Axes":[{"Field":"Cores","Values":[1,2,4]}]}}`
	res, info := postSweepFleet(t, client, fleet.URL, body)
	if res.StatusCode != http.StatusAccepted || info.Points != 3 {
		t.Fatalf("submit: status %d info %+v", res.StatusCode, info)
	}
	if loc := res.Header.Get("Location"); loc != "/v1/sweeps/"+info.ID {
		t.Fatalf("Location = %q", loc)
	}

	// An identical space dedupes onto the running sweep: 200, same ID.
	res2, info2 := postSweepFleet(t, client, fleet.URL, body)
	if res2.StatusCode != http.StatusOK || info2.ID != info.ID {
		t.Fatalf("resubmit: status %d id %s, want 200 + %s", res2.StatusCode, info2.ID, info.ID)
	}

	done := awaitSweepInfo(t, client, fleet.URL, info.ID, 60*time.Second, nil)
	if done.State != sweep.StateDone || done.Completed != 3 || done.Failed != 0 {
		t.Fatalf("final info = %+v", done)
	}
	if len(done.Frontier) != 3 || done.Frontier[0].Rank != 1 {
		t.Fatalf("frontier = %+v", done.Frontier)
	}

	// The fleet's sweep ID and frontier match a single backend running the
	// same space directly (same canonical planner, same pure ranking).
	sres, sinfo := postSweepFleet(t, client, urls[0], body)
	if sres.StatusCode != http.StatusOK && sres.StatusCode != http.StatusAccepted {
		t.Fatalf("backend sweep: status %d", sres.StatusCode)
	}
	if sinfo.ID != info.ID {
		t.Fatalf("backend sweep ID %s, fleet %s", sinfo.ID, info.ID)
	}
	sdone := awaitSweepInfo(t, client, urls[0], info.ID, 60*time.Second, nil)
	if !bytes.Equal(frontierBytes(t, done.Frontier), frontierBytes(t, sdone.Frontier)) {
		t.Fatal("fleet frontier differs from single-backend frontier")
	}

	// SSE: read two events, drop the connection, resume via Last-Event-ID.
	sseReq, _ := http.NewRequest(http.MethodGet, fleet.URL+"/v1/sweeps/"+info.ID+"/events", nil)
	sseRes, err := client.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		id    int64
		event string
	}
	readFrames := func(res *http.Response, max int) []frame {
		t.Helper()
		if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var frames []frame
		var cur frame
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &cur.id)
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case line == "":
				frames = append(frames, cur)
				cur = frame{}
				if max > 0 && len(frames) >= max {
					return frames
				}
			}
		}
		return frames
	}
	head := readFrames(sseRes, 2)
	sseRes.Body.Close()
	if len(head) != 2 || head[0].event != "planned" {
		t.Fatalf("head frames = %+v", head)
	}
	resumeReq, _ := http.NewRequest(http.MethodGet, fleet.URL+"/v1/sweeps/"+info.ID+"/events", nil)
	resumeReq.Header.Set("Last-Event-ID", fmt.Sprint(head[1].id))
	resumeRes, err := client.Do(resumeReq)
	if err != nil {
		t.Fatal(err)
	}
	tail := readFrames(resumeRes, 0)
	resumeRes.Body.Close()
	if len(tail) == 0 {
		t.Fatal("no frames after resume")
	}
	seen := head[1].id
	for _, fr := range tail {
		if fr.id != seen+1 {
			t.Fatalf("resume gap or duplicate: %d after %d", fr.id, seen)
		}
		seen = fr.id
	}
	if tail[len(tail)-1].event != sweep.StateDone {
		t.Fatalf("stream ended on %q", tail[len(tail)-1].event)
	}

	// Cancelling a finished sweep is an authoritative conflict.
	dreq, _ := http.NewRequest(http.MethodDelete, fleet.URL+"/v1/sweeps/"+info.ID, nil)
	dres, err := client.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done sweep: status %d, want 409", dres.StatusCode)
	}

	// The proxy aggregator's gcsweep_* series ride the fleet scrape.
	mres, err := client.Get(fleet.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mres.Body)
	mres.Body.Close()
	for _, want := range []string{
		"gcsweep_sweeps_submitted_total 1",
		"gcsweep_sweeps_deduped_total 1",
		"gcsweep_points_planned_total 3",
		"gcsweep_points_completed_total 3",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
}

// TestFleetSweepCancel cancels a running fleet sweep while a long job holds
// the backend's one runner: the DELETE settles every pending point at once,
// a second DELETE conflicts, every point job no other sweep waits for ends
// cancelled on the backend, and a point job that another live sweep shares
// runs to its result once the runner is free.
func TestFleetSweepCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test boots real simulators")
	}
	_, backend := startJobsBackend(t) // one runner: the points queue
	f, err := New(Options{
		Backends:       []string{backend.URL},
		HealthInterval: -1,
		SweepPoll:      10 * time.Millisecond,
		Timeout:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()
	client := &http.Client{Timeout: time.Minute}

	// Eight points fill the proxy's in-flight window at once; the other
	// sweep's single point is the same job as the victim's seed-8 point.
	const victimBody = `{"Space":{"Benches":["javac"],"Seeds":[1,2,3,4,5,6,7,8],"Base":{},"Axes":[{"Field":"Cores","Values":[2]}]}}`
	const sharerBody = `{"Space":{"Benches":["javac"],"Seeds":[8],"Base":{},"Axes":[{"Field":"Cores","Values":[2]}]}}`
	pointKeys := func(body string) []string {
		t.Helper()
		var req struct{ Space *hwgc.SweepSpace }
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		points, err := req.Space.Points()
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, p := range points {
			keys = append(keys, p.Key)
		}
		return keys
	}
	victimKeys, sharedKey := pointKeys(victimBody), pointKeys(sharerBody)[0]

	// jobState reads a job's state on the backend ("" while unknown).
	jobState := func(key string) string {
		t.Helper()
		res, err := client.Get(backend.URL + "/v1/jobs/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var info jobInfoBody
		if res.StatusCode != http.StatusOK || json.NewDecoder(res.Body).Decode(&info) != nil {
			return ""
		}
		return info.State
	}
	// Occupy the backend's one runner with a long collect in the points'
	// class, so no point job runs before the cancel. The weight is equal,
	// so a queued point never preempts it. Every access of the long collect
	// waits a million cycles, and the cache model turns fast-forward off,
	// so it would step for many minutes; the test cancels it.
	res, err := client.Post(backend.URL+"/v1/jobs", "application/json", strings.NewReader(
		`{"Collect":{"Bench":"search","Config":{"Cores":1,"L1Sets":1,"ExtraMemLatency":1000000,"MaxCycles":100000000000}},"Class":"interactive"}`))
	if err != nil {
		t.Fatal(err)
	}
	var long jobInfoBody
	if err := json.NewDecoder(res.Body).Decode(&long); err != nil || res.StatusCode != http.StatusAccepted {
		t.Fatalf("long job submit: status %d err %v", res.StatusCode, err)
	}
	res.Body.Close()
	for end := time.Now().Add(30 * time.Second); jobState(long.ID) != "running"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("long job %s state %q, want running", long.ID, jobState(long.ID))
		}
	}

	res, victim := postSweepFleet(t, client, fleet.URL, victimBody)
	if res.StatusCode != http.StatusAccepted || victim.Points != len(victimKeys) {
		t.Fatalf("submit: status %d info %+v", res.StatusCode, victim)
	}
	res, sharer := postSweepFleet(t, client, fleet.URL, sharerBody)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("sharer submit: status %d", res.StatusCode)
	}
	// Cancel once every point job has reached the backend, so the cancel
	// has queued jobs to reach.
	for end := time.Now().Add(30 * time.Second); ; {
		known := 0
		for _, k := range victimKeys {
			if jobState(k) != "" {
				known++
			}
		}
		if known == len(victimKeys) {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("only %d of %d point jobs reached the backend", known, len(victimKeys))
		}
		time.Sleep(5 * time.Millisecond)
	}

	del := func() (int, sweep.Info) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, fleet.URL+"/v1/sweeps/"+victim.ID, nil)
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var info sweep.Info
		if res.StatusCode == http.StatusOK {
			if err := json.NewDecoder(res.Body).Decode(&info); err != nil {
				t.Fatal(err)
			}
		}
		return res.StatusCode, info
	}
	code, info := del()
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d, want 200", code)
	}
	if info.State != sweep.StateCancelled || info.Completed+info.Cancelled+info.Failed != info.Points || info.Cancelled == 0 {
		t.Fatalf("cancel reply = %+v", info)
	}
	if got := awaitSweepInfo(t, client, fleet.URL, victim.ID, time.Second, nil); got.State != sweep.StateCancelled {
		t.Fatalf("after cancel: %+v", got)
	}
	if code, _ := del(); code != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", code)
	}

	// Every unshared point job was still queued behind the long job, so
	// every one ends cancelled.
	for _, k := range victimKeys {
		if k == sharedKey {
			continue
		}
		var state string
		for end := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if state = jobState(k); state == "cancelled" || state == "done" {
				break
			}
			if time.Now().After(end) {
				t.Fatalf("point job %s still %q after the cancel", k, state)
			}
		}
		if state != "cancelled" {
			t.Fatalf("unshared point job %s ended %q, want cancelled", k, state)
		}
	}
	// Freeing the runner lets the shared point job run; it completes, and so
	// does the sweep that shares it.
	req, _ := http.NewRequest(http.MethodDelete, backend.URL+"/v1/jobs/"+long.ID, nil)
	res, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("long job cancel: status %d", res.StatusCode)
	}
	sharer = awaitSweepInfo(t, client, fleet.URL, sharer.ID, 60*time.Second, nil)
	if sharer.State != sweep.StateDone || sharer.Completed != 1 {
		t.Fatalf("sharing sweep = %+v", sharer)
	}
	if state := jobState(sharedKey); state != "done" {
		t.Fatalf("shared point job state %q, want done", state)
	}
}

// TestSweepChaosE2E is the acceptance chaos run from the issue: a 64-point
// sweep fanned out over a three-backend fleet, with one backend killed hard
// and a fourth joined mid-sweep. The sweep must complete with zero lost or
// duplicated points, and the aggregated frontier must be byte-identical to
// a single gcserved running the identical space.
func TestSweepChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e boots real simulators")
	}

	var backends []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := startJobServed(t)
		backends = append(backends, ts)
	}
	_, joiner := startJobServed(t) // running, but not yet a fleet member
	_, reference := startJobServed(t)

	f, err := New(Options{
		Backends:         []string{backends[0].URL, backends[1].URL, backends[2].URL},
		Replicas:         2,
		MaxAttempts:      4,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // the kill stays visible: no half-open flapping
		HealthInterval:   200 * time.Millisecond,
		SweepPoll:        20 * time.Millisecond,
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start() // probes trip the victim's breaker → automatic rebalance
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()
	client := &http.Client{Timeout: time.Minute}

	// 16 seeds x 4 core counts = 64 points.
	const body = `{"Space":{"Benches":["jlisp"],"Seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"Base":{},"Axes":[{"Field":"Cores","Values":[1,2,4,8]}]}}`
	res, info := postSweepFleet(t, client, fleet.URL, body)
	if res.StatusCode != http.StatusAccepted || info.Points != 64 {
		t.Fatalf("submit: status %d info %+v", res.StatusCode, info)
	}

	// Let the fan-out get into the work, then unleash the chaos: a fourth
	// backend joins through the admin API and one original member dies hard.
	time.Sleep(150 * time.Millisecond)
	joinBody, _ := json.Marshal(addBackendBody{URL: joiner.URL})
	jres, err := client.Post(fleet.URL+"/v1/admin/backends", "application/json", bytes.NewReader(joinBody))
	if err != nil {
		t.Fatal(err)
	}
	var jbuf bytes.Buffer
	jbuf.ReadFrom(jres.Body)
	jres.Body.Close()
	if jres.StatusCode != http.StatusCreated {
		t.Fatalf("join: %d: %s", jres.StatusCode, jbuf.Bytes())
	}
	backends[0].CloseClientConnections()
	backends[0].Close()

	// Synchronous rebalance kicks accelerate recovery (resubmission from
	// live sources, registry rescue for the dead victim's jobs) while
	// the fleet's own 404-driven resubmission re-homes orphaned points.
	var lastKick time.Time
	kick := func() {
		if time.Since(lastKick) < 300*time.Millisecond {
			return
		}
		lastKick = time.Now()
		res, err := client.Post(fleet.URL+"/v1/admin/rebalance", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
	}
	done := awaitSweepInfo(t, client, fleet.URL, info.ID, 180*time.Second, kick)

	// Zero lost points (all 64 completed), zero failures or cancellations,
	// and the tracker's single-transition-per-point contract means zero
	// duplicated completions.
	if done.State != sweep.StateDone || done.Completed != 64 || done.Failed != 0 || done.Cancelled != 0 {
		t.Fatalf("final info = %+v", done)
	}
	mres, err := client.Get(fleet.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mres.Body)
	mres.Body.Close()
	for _, want := range []string{
		"gcsweep_points_planned_total 64",
		"gcsweep_points_completed_total 64",
		"gcsweep_points_failed_total 0",
		"gcsweep_sweeps_completed_total 1",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}

	// The same space on an untouched single node must produce the same sweep
	// ID and a byte-identical frontier: the planner is canonical and the
	// ranking is a pure function of deterministic outcomes.
	rres, rinfo := postSweepFleet(t, client, reference.URL, body)
	if rres.StatusCode != http.StatusAccepted {
		t.Fatalf("reference sweep: status %d", rres.StatusCode)
	}
	if rinfo.ID != info.ID {
		t.Fatalf("reference sweep ID %s, fleet %s", rinfo.ID, info.ID)
	}
	rdone := awaitSweepInfo(t, client, reference.URL, info.ID, 180*time.Second, nil)
	if rdone.State != sweep.StateDone || rdone.Completed != 64 {
		t.Fatalf("reference final info = %+v", rdone)
	}
	if !bytes.Equal(frontierBytes(t, done.Frontier), frontierBytes(t, rdone.Frontier)) {
		t.Fatalf("fleet frontier is not byte-identical to the single-node reference:\nfleet: %s\nref:   %s",
			frontierBytes(t, done.Frontier), frontierBytes(t, rdone.Frontier))
	}
}
