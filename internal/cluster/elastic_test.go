package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// adminReq drives one admin-API request through the fleet handler.
func adminReq(t *testing.T, f *Fleet, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeTopology(t *testing.T, rec *httptest.ResponseRecorder) topologyBody {
	t.Helper()
	var body topologyBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("topology body undecodable: %v: %s", err, rec.Body.String())
	}
	return body
}

// TestRemoveBackendRacingSend removes a key's primary from the fleet while
// a send to it is in flight. The primary fails slowly, so its 503 arrives
// for a backend that already left the ring: the fleet must settle that
// send's breaker slot with no verdict, charge the removed member nothing,
// and never send to it again in a later round.
func TestRemoveBackendRacingSend(t *testing.T) {
	for _, tc := range []struct {
		survivor string // the other replica's fake mode
		want     int    // the fleet's reply status
		sends    int64  // requests the survivor serves
	}{
		// The survivor answers in the same round.
		{survivor: "ok", want: http.StatusOK, sends: 1},
		// The survivor is busy in every round: the remaining attempts all
		// go to it, none back to the removed primary.
		{survivor: "busy", want: http.StatusTooManyRequests, sends: 3},
	} {
		t.Run(tc.survivor, func(t *testing.T) {
			primaryFake := newFakeBackend(t, 200*time.Millisecond)
			survivorFake := newFakeBackend(t, 0)
			// Threshold 1 in the first case: a single wrongly recorded
			// failure would open the breaker. The default threshold in the
			// second keeps a charged primary admissible, so a later round
			// would send to it again.
			threshold := 1
			if tc.survivor == "busy" {
				threshold = 3
			}
			f, _ := newTestFleet(t, Options{Replicas: 2, BreakerThreshold: threshold}, primaryFake, survivorFake)

			primary := f.Backends()[0]
			seed := seedOwnedBy(t, f, primary)
			primaryFake.mode.Store("slowfail")
			survivorFake.mode.Store(tc.survivor)

			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed)) }()

			// Remove the primary once the send reached it: it answers 200 ms
			// later, after the removal.
			for primaryFake.requests.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			if _, err := f.RemoveBackend(primary.id); err != nil {
				t.Fatalf("remove mid-flight: %v", err)
			}

			rec := <-done
			if rec.Code != tc.want {
				t.Fatalf("status %d after removal, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			if got := rec.Header().Get("X-Fleet-Backend"); got != f.Backends()[0].id {
				t.Errorf("served by %s, want the surviving replica", got)
			}
			if got := primaryFake.requests.Load(); got != 1 {
				t.Errorf("removed primary served %d requests, want 1 (never retried after removal)", got)
			}
			if got := survivorFake.requests.Load(); got != tc.sends {
				t.Errorf("survivor served %d requests, want %d", got, tc.sends)
			}
			if got := primary.errors.Load(); got != 0 {
				t.Errorf("removed backend charged %d errors for its late 503", got)
			}
			if got := f.metrics.backendFailures.Load(); got != 0 {
				t.Errorf("fleet charged %d failures to the removed member", got)
			}
			if st := primary.breaker.State(); st != BreakerClosed || primary.breaker.Opens() != 0 {
				t.Errorf("removed backend's breaker = %s after %d opens, want closed and never opened", st, primary.breaker.Opens())
			}

			// The probe loop no longer touches the removed member: only the
			// survivor is probed.
			f.probeAll()
			if got := f.metrics.healthProbes.Load(); got != 1 {
				t.Errorf("probeAll after removal ran %d probes, want 1", got)
			}
		})
	}
}

// TestAdminMembership walks the admin API through a join/leave cycle:
// health-gated admission, duplicate and dead-URL rejection, topology
// reporting, and last-backend protection.
func TestAdminMembership(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{Replicas: 2}, fakes...)

	// Baseline topology: two members, shares summing to ~1.
	rec := adminReq(t, f, http.MethodGet, "/v1/admin/topology", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("topology: %d", rec.Code)
	}
	top := decodeTopology(t, rec)
	if len(top.Backends) != 2 {
		t.Fatalf("topology has %d backends, want 2", len(top.Backends))
	}
	sum := 0.0
	for _, b := range top.Backends {
		if !b.Up && b.Breaker == "" {
			t.Errorf("backend %s row incomplete: %+v", b.ID, b)
		}
		sum += b.Share
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("shares sum to %v, want 1", sum)
	}

	// A dead candidate never joins: admission is health-gated.
	dead := newFakeBackend(t, 0)
	dead.mode.Store("fail")
	body, _ := json.Marshal(addBackendBody{URL: dead.ts.URL})
	if rec = adminReq(t, f, http.MethodPost, "/v1/admin/backends", body); rec.Code != http.StatusBadGateway {
		t.Fatalf("dead-backend join: %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if got := len(f.Backends()); got != 2 {
		t.Fatalf("failed admission changed membership to %d backends", got)
	}

	// A live candidate joins and owns a share of the ring.
	joiner := newFakeBackend(t, 0)
	body, _ = json.Marshal(addBackendBody{URL: joiner.ts.URL})
	rec = adminReq(t, f, http.MethodPost, "/v1/admin/backends", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("join: %d: %s", rec.Code, rec.Body.String())
	}
	top = decodeTopology(t, rec)
	if len(top.Backends) != 3 {
		t.Fatalf("post-join topology has %d backends, want 3", len(top.Backends))
	}
	if top.KeysRemapped <= 0 || top.KeysRemapped > 0.8 {
		t.Errorf("KeysRemapped = %v, want a minimal-remap fraction", top.KeysRemapped)
	}
	if f.metrics.backendsAdded.Load() != 1 {
		t.Errorf("backendsAdded = %d, want 1", f.metrics.backendsAdded.Load())
	}

	// Joining the same URL again conflicts.
	if rec = adminReq(t, f, http.MethodPost, "/v1/admin/backends", body); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate join: %d, want 409", rec.Code)
	}
	// Garbage body is a client error.
	if rec = adminReq(t, f, http.MethodPost, "/v1/admin/backends", []byte(`{`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad join body: %d, want 400", rec.Code)
	}

	// The joiner takes traffic for keys it now owns.
	var newcomer *Backend
	for _, b := range f.Backends() {
		if b.baseURL == joiner.ts.URL {
			newcomer = b
		}
	}
	if newcomer == nil {
		t.Fatal("joiner missing from fleet membership")
	}
	seed := seedOwnedBy(t, f, newcomer)
	prec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed))
	if prec.Code != http.StatusOK || prec.Header().Get("X-Fleet-Backend") != newcomer.id {
		t.Fatalf("joiner key served status %d by %q, want 200 by %s",
			prec.Code, prec.Header().Get("X-Fleet-Backend"), newcomer.id)
	}
	// The submission registry remembers fleet-routed jobs for rescue.
	submit := []byte(`{"Collect":` + string(collectBody(seed)) + `}`)
	jrec := fleetPost(t, f.Handler(), "/v1/jobs", submit)
	if jrec.Code >= http.StatusMultipleChoices {
		t.Fatalf("job submit: %d", jrec.Code)
	}
	if got := f.registry.Len(); got != 1 {
		t.Errorf("registry has %d jobs after a submit, want 1", got)
	}

	// Removal: unknown id 404s, a member leaves with 200, the last one is
	// protected.
	if rec = adminReq(t, f, http.MethodDelete, "/v1/admin/backends/nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown removal: %d, want 404", rec.Code)
	}
	victims := f.Backends()
	for _, v := range victims[:2] {
		if rec = adminReq(t, f, http.MethodDelete, "/v1/admin/backends/"+v.id, nil); rec.Code != http.StatusOK {
			t.Fatalf("remove %s: %d: %s", v.id, rec.Code, rec.Body.String())
		}
	}
	if got := len(f.Backends()); got != 1 {
		t.Fatalf("%d backends after two removals, want 1", got)
	}
	if f.metrics.backendsRemoved.Load() != 2 {
		t.Errorf("backendsRemoved = %d, want 2", f.metrics.backendsRemoved.Load())
	}
	last := f.Backends()[0]
	if rec = adminReq(t, f, http.MethodDelete, "/v1/admin/backends/"+last.id, nil); rec.Code != http.StatusConflict {
		t.Fatalf("last-backend removal: %d, want 409", rec.Code)
	}
}

// TestAdminRebalanceReport covers the synchronous rebalance endpoint: the
// pass runs inline and reports what it scanned, and a clean pass clears
// drained migration sources from the topology.
func TestAdminRebalanceReport(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{Replicas: 2}, fakes...)

	victim := f.Backends()[0]
	if _, err := f.RemoveBackend(victim.id); err != nil {
		t.Fatal(err)
	}
	rec := adminReq(t, f, http.MethodPost, "/v1/admin/rebalance", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebalance: %d: %s", rec.Code, rec.Body.String())
	}
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("report undecodable: %v", err)
	}
	if rep.Failed != 0 {
		t.Fatalf("clean pass reported %d failures: %+v", rep.Failed, rep)
	}
	// The drained source is gone from the topology.
	top := decodeTopology(t, adminReq(t, f, http.MethodGet, "/v1/admin/topology", nil))
	for _, b := range top.Backends {
		if b.Removed {
			t.Errorf("drained source %s still in topology after a clean pass", b.ID)
		}
	}
	if rec = adminReq(t, f, http.MethodGet, "/v1/admin/rebalance", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET rebalance: %d, want 405", rec.Code)
	}
}
