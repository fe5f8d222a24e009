package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
	"hwgc/internal/server"
)

// startJobServed boots one real gcserved with the durable async job tier
// mounted and short slices (so a released job stops quickly).
func startJobServed(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Options{
		Workers:     2,
		JobsDir:     t.TempDir(),
		SliceCycles: 2000,
		Timeout:     30 * time.Second,
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

// TestElasticChaosE2E is the acceptance chaos run from the issue: three
// real gcserved backends behind one gcfleet, a batch of async jobs in
// flight, then — mid-run — a fourth backend joins through the admin API and
// one original backend is killed. Every job must still finish (resubmission
// from reachable sources, registry rescue for the dead one) with
// results byte-identical to a single-node reference. Zero abandoned jobs.
func TestElasticChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e boots real simulators")
	}

	var backends []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := startJobServed(t)
		backends = append(backends, ts)
	}
	_, joiner := startJobServed(t) // running, but not yet a fleet member
	_, reference := startGCServed(t)

	f, err := New(Options{
		Backends:         []string{backends[0].URL, backends[1].URL, backends[2].URL},
		Replicas:         2,
		MaxAttempts:      4,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // the kill stays visible: no half-open flapping
		// Also the probe timeout: generous enough that a loaded-but-live
		// backend never trips its own breaker on a slow /healthz.
		HealthInterval: 500 * time.Millisecond,
		Timeout:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start() // health loop: probes drive the victim's breaker open → auto rebalance
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	client := &http.Client{Timeout: time.Minute}
	post := func(url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		res, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	victim := f.Backends()[0]
	victimTS := backends[0]

	// Build the job mix: one-core jlisp collects at scale 2 (about 61k
	// simulated cycles, 30 slices each). The first four are owned by
	// the victim, so the kill strands work that only rescue or resubmission
	// can save; they are one-core javac collects at scale 16 (about 7.5M
	// cycles, over half a second each even without -race), so that they
	// are still in flight at the kill (see the wait below).
	type chaosJob struct {
		id       string
		syncPath string
		syncBody []byte
		submit   []byte
	}
	var jobsList []chaosJob
	mkCollect := func(bench string, seed int64, scale int) chaosJob {
		req := hwgc.CollectRequest{Bench: bench, Scale: scale, Seed: seed, Config: hwgc.Config{Cores: 1}}
		canon, err := req.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return chaosJob{
			id:       hwgc.KeyBytes(canon),
			syncPath: "/v1/collect",
			syncBody: canon,
			submit:   []byte(`{"Collect":` + string(canon) + `}`),
		}
	}
	victimOwned := 0
	for seed := int64(1); victimOwned < 4 && seed < 10000; seed++ {
		j := mkCollect("javac", seed, 16)
		if f.primaryFor(j.id) == victim {
			jobsList = append(jobsList, j)
			victimOwned++
		}
	}
	if victimOwned < 4 {
		t.Fatal("could not find victim-owned collect seeds")
	}
	for seed := int64(10001); len(jobsList) < 10; seed++ {
		jobsList = append(jobsList, mkCollect("jlisp", seed, 2))
	}

	// The victim-owned jobs go last: each submission fsyncs a WAL record,
	// and the victim's jobs start running as soon as they are accepted.
	for i := len(jobsList) - 1; i >= 0; i-- {
		j := jobsList[i]
		res, body := post(fleet.URL+"/v1/jobs", j.submit)
		if res.StatusCode != http.StatusAccepted && res.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, res.StatusCode, body)
		}
		var info jobs.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if info.ID != j.id {
			t.Fatalf("submit %d: backend minted job %s, fleet routed by %s", i, info.ID, j.id)
		}
	}
	if got := f.registry.Len(); got != len(jobsList) {
		t.Fatalf("registry recorded %d submissions, want %d", got, len(jobsList))
	}

	// Let the runners get into the work, then unleash the chaos: a new
	// backend joins through the admin API, and the victim dies hard. The
	// wait is on the victim's state, not a fixed time: it ends as soon as
	// the victim has passed a slice boundary in one of its own jobs. Its two
	// runners start two of them together and queue the other two behind
	// them, and each is thousands of slices long, so the join and the check
	// below run long before any of the four can finish.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		started := false
		for _, j := range jobsList[:4] {
			res, err := client.Get(victimTS.URL + "/v1/jobs/" + j.id)
			if err != nil {
				t.Fatal(err)
			}
			var info jobs.Info
			err = json.NewDecoder(res.Body).Decode(&info)
			res.Body.Close()
			if err != nil {
				t.Fatalf("victim job %s: %v", j.id[:12], err)
			}
			started = started || info.Cycle > 0
		}
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the victim started none of its jobs")
		}
	}
	joinBody, _ := json.Marshal(addBackendBody{URL: joiner.URL})
	jres, jbody := post(fleet.URL+"/v1/admin/backends", joinBody)
	if jres.StatusCode != http.StatusCreated {
		t.Fatalf("join: %d: %s", jres.StatusCode, jbody)
	}
	// The victim-owned jobs (the first four) must all still be in flight,
	// on the victim or already migrated to the joiner.
	inFlight := map[string]bool{}
	for _, ts := range append(backends, joiner) {
		res, err := client.Get(ts.URL + "/v1/jobs?active=true")
		if err != nil {
			t.Fatal(err)
		}
		var active struct{ Jobs []jobs.Info }
		err = json.NewDecoder(res.Body).Decode(&active)
		res.Body.Close()
		if err != nil {
			t.Fatalf("active list of %s: %v", ts.URL, err)
		}
		for _, info := range active.Jobs {
			inFlight[info.ID] = true
		}
	}
	for i, j := range jobsList[:4] {
		if !inFlight[j.id] {
			t.Fatalf("victim-owned job %d (%s) finished before the kill", i, j.id[:12])
		}
	}
	victimTS.CloseClientConnections()
	victimTS.Close()

	// Drive recovery deterministically: synchronous rebalance passes move
	// displaced jobs (resubmission from live sources, registry
	// rescue for the dead victim's), while result polling proves no job was
	// abandoned and every result is byte-identical to the single-node
	// reference.
	var lastKick time.Time
	kickRebalance := func() {
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
	kickRebalance()
	for i, j := range jobsList {
		deadline := time.Now().Add(120 * time.Second)
		var status int
		var got []byte
		for {
			resp, err := client.Get(fleet.URL + "/v1/jobs/" + j.id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			status, got = resp.StatusCode, buf.Bytes()
			if status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				for _, b := range f.Backends() {
					t.Logf("backend %s removed=%v breaker=%s", b.id, b.Removed(), b.breaker.State())
					resp, err := client.Get(b.baseURL + "/v1/jobs/" + j.id)
					if err != nil {
						t.Logf("  job view: %v", err)
						continue
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					t.Logf("  job view: %d %s", resp.StatusCode, buf.String())
				}
				t.Fatalf("job %d (%s) abandoned: last status %d: %s", i, j.id[:12], status, got)
			}
			// 202 running, 404/410 mid-migration, 5xx routing turbulence:
			// all transient while the fleet re-homes the job.
			kickRebalance()
			time.Sleep(50 * time.Millisecond)
		}
		sres, want := post(reference.URL+j.syncPath, j.syncBody)
		if sres.StatusCode != http.StatusOK {
			t.Fatalf("reference run %d: status %d", i, sres.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d result is not byte-identical to the single-node reference", i)
		}
	}

	// Metrics surface the whole story.
	mres, err := client.Get(fleet.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mres.Body)
	mres.Body.Close()
	text := mbuf.String()
	for _, want := range []string{
		"gcfleet_backends_added_total 1",
		"gcelastic_rebalances_total",
		fmt.Sprintf("gcfleet_breaker_state{backend=%q} 1", victim.id),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The victim's stranded jobs really did take the elastic path.
	series := checkExposition(t, "gcfleet", text)
	if series["gcelastic_jobs_migrated_total"]+series["gcelastic_jobs_resubmitted_total"] == 0 {
		t.Error("no job was migrated or rescued; the chaos never displaced work")
	}
	if series["gcelastic_rebalances_total"] == 0 {
		t.Error("no rebalance pass ran")
	}

	// Finally the operator retires the dead member; the fleet is 3 live
	// backends again and the batch replays all-OK from live owners.
	dreq, _ := http.NewRequest(http.MethodDelete, fleet.URL+"/v1/admin/backends/"+victim.id, nil)
	dres, err := client.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusOK {
		t.Fatalf("retiring dead victim: %d", dres.StatusCode)
	}
	live := 0
	for _, b := range f.Backends() {
		if !b.Removed() {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("%d live backends after retirement, want 3", live)
	}
}
