package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"hwgc/internal/jobs"
)

// scriptedBackend is a fake gcserved that answers the endpoints a
// rebalance pass calls from a script and records every call in order.
type scriptedBackend struct {
	ts *httptest.Server

	mu    sync.Mutex
	calls []string // "METHOD path"

	list         []jobs.Info // GET /v1/jobs?active=true
	known        bool        // GET /v1/jobs/{id} answers 200
	submitStatus int         // POST /v1/jobs (0 → 202)
}

func newScriptedBackend(t *testing.T) *scriptedBackend {
	t.Helper()
	sb := &scriptedBackend{}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		sb.calls = append(sb.calls, r.Method+" "+r.URL.Path)
		sb.mu.Unlock()
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs":
			_ = json.NewEncoder(w).Encode(struct{ Jobs []jobs.Info }{sb.list})
		case r.Method == http.MethodDelete && strings.HasSuffix(r.URL.Path, "/checkpoint"):
			fmt.Fprint(w, `{}`)
		case r.Method == http.MethodGet: // GET /v1/jobs/{id}
			if sb.known {
				fmt.Fprint(w, `{}`)
				return
			}
			http.Error(w, "no such job", http.StatusNotFound)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if sb.submitStatus != 0 {
				http.Error(w, "scripted submit failure", sb.submitStatus)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{}`)
		default:
			http.Error(w, "unscripted", http.StatusTeapot)
		}
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *scriptedBackend) callLog() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]string(nil), sb.calls...)
}

func (sb *scriptedBackend) resetLog() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.calls = nil
}

func (sb *scriptedBackend) info(id string) passBackend {
	return passBackend{id: id, url: sb.ts.URL, admissible: true}
}

const testJobID = "cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000"

var testJobBody = []byte(`{"Collect":{"Bench":"jlisp","Config":{"Cores":2}}}`)

// planFor is a two-backend plan whose every key has the owners ownerOrder
// and whose registry holds testJobID's body.
func planFor(src, dst passBackend, ownerOrder ...string) rebalancePlan {
	return rebalancePlan{
		backends: []passBackend{src, dst},
		replicas: func(string) []string { return ownerOrder },
		registry: map[string][]byte{testJobID: testJobBody},
	}
}

// TestRebalanceZeroLossOrdering drives one clean move and checks the
// ordering contract: the source is released only after the new owner
// accepted the resubmission, and a refused resubmission leaves the source
// unreleased. A job whose key still routes to its source is never touched.
func TestRebalanceZeroLossOrdering(t *testing.T) {
	src := newScriptedBackend(t)
	dst := newScriptedBackend(t)
	src.list = []jobs.Info{{ID: testJobID, State: jobs.StateRunning}}

	met := newRebalanceMetrics()
	rep := rebalance(context.Background(), http.DefaultClient, met, planFor(src.info("src"), dst.info("dst"), "dst", "src"))
	if want := (Report{Scanned: 1, Moved: 1}); rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	release := "DELETE /v1/jobs/" + testJobID + "/checkpoint"
	if srcLog := src.callLog(); len(srcLog) < 2 || srcLog[len(srcLog)-1] != release {
		t.Fatalf("source call log %v: release must be the last source call", srcLog)
	}
	if !slices.Contains(dst.callLog(), "POST /v1/jobs") {
		t.Fatalf("destination call log %v: no resubmission", dst.callLog())
	}
	if met.jobsMigrated.Load() != 1 || met.failed.Load() != 0 {
		t.Errorf("metrics migrated=%d failed=%d", met.jobsMigrated.Load(), met.failed.Load())
	}

	// A refused resubmission fails the move and keeps the job at its source.
	src.resetLog()
	dst.submitStatus = http.StatusServiceUnavailable
	rep = rebalance(context.Background(), http.DefaultClient, met, planFor(src.info("src"), dst.info("dst"), "dst", "src"))
	if rep.Failed != 1 || rep.Moved != 0 {
		t.Fatalf("report = %+v, want 1 failure, nothing moved", rep)
	}
	if slices.Contains(src.callLog(), release) {
		t.Fatal("source released although the new owner refused the job")
	}

	// A job whose key still routes to its source is never touched.
	src.resetLog()
	dst.resetLog()
	rep = rebalance(context.Background(), http.DefaultClient, met, planFor(src.info("src"), dst.info("dst"), "src", "dst"))
	if rep.Moved != 0 || rep.Failed != 0 {
		t.Fatalf("stable-owner pass moved %d failed %d", rep.Moved, rep.Failed)
	}
	if slices.Contains(src.callLog(), release) || slices.Contains(dst.callLog(), "POST /v1/jobs") {
		t.Fatalf("stable-owner pass touched the job: source %v, destination %v", src.callLog(), dst.callLog())
	}
}

// TestRebalanceSkipsFinishedJob: a listed job whose body the registry does
// not hold stays and finishes where it runs. That is a skip, not a
// failure: nothing is resubmitted or released.
func TestRebalanceSkipsFinishedJob(t *testing.T) {
	src := newScriptedBackend(t)
	dst := newScriptedBackend(t)
	src.list = []jobs.Info{{ID: testJobID, State: jobs.StateRunning}}

	p := planFor(src.info("src"), dst.info("dst"), "dst")
	p.registry = nil
	rep := rebalance(context.Background(), http.DefaultClient, newRebalanceMetrics(), p)
	if rep.Failed != 0 || rep.Moved != 0 || rep.Scanned != 1 {
		t.Fatalf("report = %+v, want a clean skip", rep)
	}
	if got := append(src.callLog(), dst.callLog()...); len(got) != 2 || got[0] != "GET /v1/jobs" || got[1] != "GET /v1/jobs" {
		t.Fatalf("calls %v, want only the two listings", got)
	}
}

// TestRebalanceRegistryRescue: a registry job no backend lists (its owner
// died) is resubmitted from its canonical body; one a backend already
// knows is left alone.
func TestRebalanceRegistryRescue(t *testing.T) {
	dst := newScriptedBackend(t)
	deadID := strings.Repeat("ab", 32)
	knownID := strings.Repeat("cd", 32)

	met := newRebalanceMetrics()
	p := rebalancePlan{
		backends: []passBackend{dst.info("dst")},
		replicas: func(string) []string { return []string{"dst"} },
		registry: map[string][]byte{deadID: testJobBody, knownID: testJobBody},
	}
	// First rescue: dst knows neither job → both resubmitted.
	rep := rebalance(context.Background(), http.DefaultClient, met, p)
	if rep.Resubmitted != 2 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want 2 rescues", rep)
	}
	// Second pass with the jobs adopted: nothing to do.
	dst.known = true
	rep = rebalance(context.Background(), http.DefaultClient, met, p)
	if rep.Resubmitted != 0 || rep.Failed != 0 {
		t.Fatalf("second pass report = %+v, want no rescues", rep)
	}
	if met.jobsResubmitted.Load() != 2 {
		t.Errorf("jobsResubmitted = %d, want 2", met.jobsResubmitted.Load())
	}
}

// TestRebalanceDeadSourceCounted: an unreachable source counts as a failure
// (so the fleet retains it for the next pass) without aborting the rest of
// the pass.
func TestRebalanceDeadSourceCounted(t *testing.T) {
	dead := newScriptedBackend(t)
	deadInfo := dead.info("dead")
	dead.ts.Close() // connection refused from here on
	live := newScriptedBackend(t)
	live.list = []jobs.Info{{ID: testJobID, State: jobs.StateQueued}}

	p := rebalancePlan{
		backends: []passBackend{deadInfo, live.info("live")},
		replicas: func(string) []string { return []string{"live"} },
	}
	rep := rebalance(context.Background(), http.DefaultClient, newRebalanceMetrics(), p)
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want the dead source counted once", rep.Failed)
	}
	if rep.Scanned != 1 {
		t.Fatalf("scanned = %d: the live source must still be listed", rep.Scanned)
	}
}

// TestRebalanceAvoidsInadmissibleDestination: a breaker-open backend is
// still listed as a source, but its keys route to the next admissible
// replica rather than to it.
func TestRebalanceAvoidsInadmissibleDestination(t *testing.T) {
	tripped := newScriptedBackend(t)
	trippedInfo := tripped.info("tripped")
	trippedInfo.admissible = false
	tripped.list = []jobs.Info{{ID: testJobID, State: jobs.StateRunning}}
	healthy := newScriptedBackend(t)

	// Ring order puts the tripped member first; the pass must fall through
	// to the admissible replica.
	p := planFor(trippedInfo, healthy.info("healthy"), "tripped", "healthy")
	rep := rebalance(context.Background(), http.DefaultClient, newRebalanceMetrics(), p)
	if rep.Moved != 1 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want the job moved off the tripped member", rep)
	}
	if !slices.Contains(healthy.callLog(), "POST /v1/jobs") {
		t.Fatal("healthy backend never received the resubmission")
	}
}
