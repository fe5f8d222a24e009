package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwgc"
)

// fakeBackend is a switchable stand-in for one gcserved: mode "ok" echoes
// a deterministic body derived from the request (so byte-identity across
// backends holds, like the real deterministic simulator), mode "fail"
// returns 503 everywhere, mode "slow" answers after a delay, mode "busy"
// returns 429 with a Retry-After, and mode "reject" returns 400.
type fakeBackend struct {
	ts       *httptest.Server
	mode     atomic.Value // string
	requests atomic.Int64 // POST /v1/* requests served
	delay    time.Duration
}

func newFakeBackend(t *testing.T, delay time.Duration) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{delay: delay}
	fb.mode.Store("ok")
	fb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode := fb.mode.Load().(string)
		if r.URL.Path == "/healthz" {
			if mode == "fail" {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"Status":"ok"}`))
			return
		}
		fb.requests.Add(1)
		switch mode {
		case "fail":
			http.Error(w, "boom", http.StatusServiceUnavailable)
			return
		case "busy":
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		case "reject":
			http.Error(w, "invalid request", http.StatusBadRequest)
			return
		case "slow":
			time.Sleep(fb.delay)
		case "slowfail":
			time.Sleep(fb.delay)
			http.Error(w, "late boom", http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Cache", "MISS")
		fmt.Fprintf(w, `{"Echo":%q,"Path":%q}`, hwgc.KeyBytes(body), r.URL.Path)
	}))
	t.Cleanup(fb.ts.Close)
	return fb
}

// newTestFleet builds a fleet over the given fakes with fast, deterministic
// settings: health probing disabled (tests drive breakers via traffic) and
// backoff/Retry-After sleeps recorded instead of slept.
func newTestFleet(t *testing.T, opts Options, fakes ...*fakeBackend) (*Fleet, *[]time.Duration) {
	t.Helper()
	for _, fb := range fakes {
		opts.Backends = append(opts.Backends, fb.ts.URL)
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = -1
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	var mu sync.Mutex
	slept := &[]time.Duration{}
	f.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return f, slept
}

func collectBody(seed int64) []byte {
	req := hwgc.CollectRequest{Bench: "jlisp", Seed: seed, Config: hwgc.Config{Cores: 2}}
	b, err := req.CanonicalJSON()
	if err != nil {
		panic(err)
	}
	return b
}

func fleetPost(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// seedOwnedBy finds a collect-request seed whose content key is owned by
// the given backend, so tests can aim traffic at a specific ring member.
func seedOwnedBy(t *testing.T, f *Fleet, b *Backend) int64 {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		req := hwgc.CollectRequest{Bench: "jlisp", Seed: seed, Config: hwgc.Config{Cores: 2}}
		key, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		if f.primaryFor(key) == b {
			return seed
		}
	}
	t.Fatal("no seed found owned by backend")
	return 0
}

func TestFleetCacheAffineRouting(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0), newFakeBackend(t, 0)}
	// Edge cache off: every repeat must be routed, not answered at the fleet.
	f, _ := newTestFleet(t, Options{CacheEntries: -1}, fakes...)

	// The same request, repeatedly: always the same backend.
	body := collectBody(7)
	served := map[string]bool{}
	var first []byte
	for i := 0; i < 10; i++ {
		rec := fleetPost(t, f.Handler(), "/v1/collect", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		served[rec.Header().Get("X-Fleet-Backend")] = true
		if first == nil {
			first = rec.Body.Bytes()
		} else if !bytes.Equal(first, rec.Body.Bytes()) {
			t.Fatal("replies for the same request differ")
		}
	}
	if len(served) != 1 {
		t.Fatalf("one request key was served by %d backends %v; want cache-affine routing to 1",
			len(served), served)
	}

	// Equivalent spellings (defaults spelled out vs omitted) share the key
	// and therefore the backend.
	spelled := []byte(`{"Bench":"jlisp","Scale":1,"Seed":7,"Config":{"Cores":2}}`)
	rec := fleetPost(t, f.Handler(), "/v1/collect", spelled)
	if got := rec.Header().Get("X-Fleet-Backend"); !served[got] {
		t.Errorf("equivalent request routed to %s, not the key's owner", got)
	}

	// Distinct requests spread across backends.
	owners := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed))
		owners[rec.Header().Get("X-Fleet-Backend")] = true
	}
	if len(owners) != 3 {
		t.Errorf("40 distinct keys hit only %d backends, want 3", len(owners))
	}
}

func TestFleetFailoverTripsBreakerAndReroutes(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0), newFakeBackend(t, 0)}
	// Edge cache off: the repeated key must keep reaching backends.
	f, _ := newTestFleet(t, Options{BreakerThreshold: 2, BreakerCooldown: time.Hour, CacheEntries: -1}, fakes...)

	victim := f.Backends()[0]
	var victimFake *fakeBackend
	for _, fb := range fakes {
		if strings.HasSuffix(victim.baseURL, fb.ts.Listener.Addr().String()) {
			victimFake = fb
		}
	}
	if victimFake == nil {
		t.Fatal("victim fake not found")
	}
	victimFake.mode.Store("fail")
	seed := seedOwnedBy(t, f, victim)

	// Every request still succeeds: the ring fails over to the next
	// replica while the victim accumulates breaker failures.
	for i := 0; i < 4; i++ {
		rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Fleet-Backend"); got == victim.id {
			t.Fatalf("request %d served by the failing backend", i)
		}
	}
	if victim.breaker.State() != BreakerOpen {
		t.Fatalf("victim breaker %s, want open", victim.breaker.State())
	}
	if f.metrics.failovers.Load() == 0 {
		t.Error("no failovers counted")
	}
	if f.metrics.backendFailures.Load() == 0 {
		t.Error("no backend failures counted")
	}

	// With the breaker open the victim is skipped entirely: no new
	// requests reach it.
	before := victimFake.requests.Load()
	for i := 0; i < 3; i++ {
		if rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed)); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if got := victimFake.requests.Load(); got != before {
		t.Errorf("open breaker leaked %d requests to the victim", got-before)
	}

	// Metrics reflect the trip and the rerouting.
	mrec := httptest.NewRecorder()
	f.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := mrec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("gcfleet_breaker_state{backend=%q} 1", victim.id),
		fmt.Sprintf("gcfleet_breaker_opens_total{backend=%q} 1", victim.id),
		"gcfleet_failovers_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestFleetHalfOpenReadmission(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond}, fakes...)

	victim := f.Backends()[0]
	var victimFake *fakeBackend
	for _, fb := range fakes {
		if strings.HasSuffix(victim.baseURL, fb.ts.Listener.Addr().String()) {
			victimFake = fb
		}
	}
	victimFake.mode.Store("fail")
	seed := seedOwnedBy(t, f, victim)

	if rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed)); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if victim.breaker.State() != BreakerOpen {
		t.Fatalf("victim breaker %s, want open", victim.breaker.State())
	}

	// Backend recovers; after the cooldown the next request is the
	// half-open probe and re-admits it.
	victimFake.mode.Store("ok")
	time.Sleep(40 * time.Millisecond)
	rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Fleet-Backend"); got != victim.id {
		t.Fatalf("probe request served by %s, want recovered owner %s", got, victim.id)
	}
	if victim.breaker.State() != BreakerClosed {
		t.Fatalf("victim breaker %s after successful probe, want closed", victim.breaker.State())
	}
}

func TestFleetHealthProbeReadmission(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  20 * time.Millisecond,
		HealthInterval:   10 * time.Millisecond,
	}, fakes...)
	f.Start()

	victim := f.Backends()[0]
	var victimFake *fakeBackend
	for _, fb := range fakes {
		if strings.HasSuffix(victim.baseURL, fb.ts.Listener.Addr().String()) {
			victimFake = fb
		}
	}

	// The health loop notices the failure and proactively opens the
	// breaker with no user traffic at all.
	victimFake.mode.Store("fail")
	waitFor(t, time.Second, func() bool { return victim.breaker.State() == BreakerOpen })

	// And re-admits it after recovery, again with no user traffic.
	victimFake.mode.Store("ok")
	waitFor(t, time.Second, func() bool { return victim.breaker.State() == BreakerClosed })
	if !victim.healthy.Load() {
		t.Error("recovered backend not marked healthy")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

func TestFleetHonorsRetryAfter(t *testing.T) {
	fb := newFakeBackend(t, 0)
	f, slept := newTestFleet(t, Options{MaxAttempts: 3}, fb)

	// The lone backend is busy: the fleet should back off by the
	// advertised Retry-After (1s) between rounds rather than hammering.
	fb.mode.Store("busy")
	rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(1))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the backend's own 429 surfaced", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After %q not propagated", rec.Header().Get("Retry-After"))
	}
	found := false
	for _, d := range *slept {
		if d == time.Second {
			found = true
		}
	}
	if !found {
		t.Errorf("no 1s Retry-After wait recorded; slept %v", *slept)
	}
	// 429s are liveness, not failure: the breaker must stay closed.
	if got := f.Backends()[0].breaker.State(); got != BreakerClosed {
		t.Errorf("breaker %s after 429s, want closed", got)
	}
}

func TestFleetBackoffOnServerErrors(t *testing.T) {
	fb := newFakeBackend(t, 0)
	f, slept := newTestFleet(t, Options{
		MaxAttempts:      3,
		BreakerThreshold: 10,
		BaseBackoff:      10 * time.Millisecond,
		MaxBackoff:       40 * time.Millisecond,
	}, fb)

	fb.mode.Store("fail")
	rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the backend's 503 surfaced after retries", rec.Code)
	}
	if len(*slept) < 2 {
		t.Fatalf("recorded %d backoff sleeps, want >= 2 (3 attempts)", len(*slept))
	}
	for i, d := range *slept {
		if d <= 0 || d > 40*time.Millisecond {
			t.Errorf("backoff %d = %s outside (0, MaxBackoff]", i, d)
		}
	}
	// Jittered exponential: the cap must hold even for later attempts.
	if f.metrics.retries.Load() != 2 {
		t.Errorf("retries = %d, want 2", f.metrics.retries.Load())
	}
}

func TestFleetHedgedRequests(t *testing.T) {
	slow := newFakeBackend(t, 250*time.Millisecond)
	fast := newFakeBackend(t, 0)
	f, _ := newTestFleet(t, Options{
		HedgeQuantile: 0.95,
		HedgeMinDelay: 10 * time.Millisecond,
	}, slow, fast)
	// Restore real sleeps: hedging uses timers, not f.sleep, but keep the
	// recorded-sleep hook harmless anyway.

	var slowBackend *Backend
	for _, b := range f.Backends() {
		if strings.HasSuffix(b.baseURL, slow.ts.Listener.Addr().String()) {
			slowBackend = b
		}
	}
	slow.mode.Store("slow")
	seed := seedOwnedBy(t, f, slowBackend)

	start := time.Now()
	rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed))
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Fleet-Backend"); got == slowBackend.id {
		t.Fatalf("hedge did not win: served by the slow owner %s", got)
	}
	if elapsed >= 250*time.Millisecond {
		t.Errorf("hedged request took %s; want well under the slow backend's 250ms", elapsed)
	}
	if f.metrics.hedges.Load() == 0 || f.metrics.hedgeWins.Load() == 0 {
		t.Errorf("hedges %d / wins %d, want both > 0",
			f.metrics.hedges.Load(), f.metrics.hedgeWins.Load())
	}
}

// TestFleetScatterGatherRace drives a 120-item mixed batch through the
// scatter-gather path (run under -race in CI): every item must be reported
// exactly once, in order, with either a success or an explicit failure.
func TestFleetScatterGatherRace(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{BatchInflight: 4}, fakes...)

	const items = 120
	var sb strings.Builder
	sb.WriteString(`{"Items":[`)
	for i := 0; i < items; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		if i%5 == 4 {
			fmt.Fprintf(&sb, `{"Sweep":{"Bench":"jlisp","Cores":[1,2],"Seed":%d,"Config":{}}}`, i+1)
		} else {
			fmt.Fprintf(&sb, `{"Collect":{"Bench":"jlisp","Seed":%d,"Config":{"Cores":2}}}`, i+1)
		}
	}
	sb.WriteString(`]}`)
	body := []byte(sb.String())

	// Two concurrent batches to stress the shared ring/breaker/metrics
	// paths as well.
	type out struct {
		code int
		resp *hwgc.BatchResponse
	}
	results := make(chan out, 2)
	for g := 0; g < 2; g++ {
		go func() {
			rec := fleetPost(t, f.Handler(), "/v1/batch", body)
			br, err := hwgc.DecodeBatchResponse(bytes.NewReader(rec.Body.Bytes()))
			if err != nil {
				t.Error(err)
				results <- out{rec.Code, nil}
				return
			}
			results <- out{rec.Code, br}
		}()
	}
	for g := 0; g < 2; g++ {
		o := <-results
		if o.resp == nil {
			t.Fatal("batch response undecodable")
		}
		if o.code != http.StatusOK {
			t.Fatalf("batch status %d: OK=%d Failed=%d", o.code, o.resp.OK, o.resp.Failed)
		}
		if len(o.resp.Items) != items || o.resp.OK != items {
			t.Fatalf("items=%d OK=%d Failed=%d, want all %d OK",
				len(o.resp.Items), o.resp.OK, o.resp.Failed, items)
		}
		for i, it := range o.resp.Items {
			if it.Index != i || it.Status != http.StatusOK || len(it.Body) == 0 {
				t.Fatalf("item %d: %+v", i, it)
			}
		}
	}
	if got := f.metrics.batchItems.Load(); got != 2*items {
		t.Errorf("batch items metric %d, want %d", got, 2*items)
	}
	// The ring spread the items across all three backends.
	for _, b := range f.Backends() {
		if b.requests.Load() == 0 {
			t.Errorf("backend %s served no batch items; routing distribution broken", b.id)
		}
	}
}

func TestFleetBatchPartialFailure(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{MaxAttempts: 2, BreakerThreshold: 100}, fakes...)
	body := []byte(`{"Items":[
		{"Collect":{"Bench":"jlisp","Config":{}}},
		{},
		{"Collect":{"Bench":"no-such-bench","Config":{}}}
	]}`)
	rec := fleetPost(t, f.Handler(), "/v1/batch", body)
	if rec.Code != http.StatusMultiStatus {
		t.Fatalf("status %d, want 207", rec.Code)
	}
	br, err := hwgc.DecodeBatchResponse(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if br.OK != 1 || br.Failed != 2 {
		t.Fatalf("OK=%d Failed=%d, want 1/2", br.OK, br.Failed)
	}
	if br.Items[1].Status != http.StatusBadRequest || br.Items[2].Status != http.StatusBadRequest {
		t.Fatalf("invalid items got statuses %d/%d, want 400/400", br.Items[1].Status, br.Items[2].Status)
	}
}

func TestFleetAllBackendsDown(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{BreakerThreshold: 1, BreakerCooldown: time.Hour, MaxAttempts: 4}, fakes...)
	for _, fb := range fakes {
		fb.mode.Store("fail")
	}
	// First request trips both breakers (failover tries each once).
	rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	// Second request finds every breaker open: immediate local 503, no
	// network traffic, no hang.
	before := fakes[0].requests.Load() + fakes[1].requests.Load()
	rec = fleetPost(t, f.Handler(), "/v1/collect", collectBody(1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := fakes[0].requests.Load() + fakes[1].requests.Load(); got != before {
		t.Errorf("open breakers still sent %d requests", got-before)
	}
	if f.metrics.exhausted.Load() == 0 {
		t.Error("exhausted requests not counted")
	}
}

func TestFleetHealthzEndpoint(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{BreakerThreshold: 1, BreakerCooldown: time.Hour}, fakes...)

	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"Status": "ok"`) {
		t.Fatalf("healthz %d: %s", rec.Code, rec.Body.String())
	}

	// Kill both backends and trip the breakers: the fleet reports degraded.
	for _, fb := range fakes {
		fb.mode.Store("fail")
	}
	fleetPost(t, f.Handler(), "/v1/collect", collectBody(1))
	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"Status": "degraded"`) {
		t.Fatalf("healthz after failure %d: %s", rec.Code, rec.Body.String())
	}
}

func TestFleetWorkloadsProxy(t *testing.T) {
	fb := newFakeBackend(t, 0)
	f, _ := newTestFleet(t, Options{}, fb)
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "/v1/workloads") {
		t.Errorf("workloads reply not proxied: %s", rec.Body.String())
	}
}

func TestFleetRejectsBadRequests(t *testing.T) {
	fb := newFakeBackend(t, 0)
	f, _ := newTestFleet(t, Options{}, fb)
	for name, tc := range map[string]struct {
		path string
		body string
	}{
		"bad json":    {"/v1/collect", "nope"},
		"bad bench":   {"/v1/collect", `{"Bench":"doom","Config":{}}`},
		"bad sweep":   {"/v1/sweep", `{"Cores":[1],"Config":{}}`},
		"empty batch": {"/v1/batch", `{"Items":[]}`},
	} {
		rec := fleetPost(t, f.Handler(), tc.path, []byte(tc.body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (validated at the fleet, no backend hop)", name, rec.Code)
		}
	}
	if fb.requests.Load() != 0 {
		t.Errorf("invalid requests reached a backend %d times", fb.requests.Load())
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/collect", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/collect: status %d, want 405", rec.Code)
	}
}

func TestFleetRemoveBackend(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{}, fakes...)
	victim := f.Backends()[1]
	frac, err := f.RemoveBackend(victim.id)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 || frac > 0.6 {
		t.Errorf("remap fraction %v after removing 1 of 3, want ~1/3", frac)
	}
	if !victim.Removed() {
		t.Error("removed backend not marked removed")
	}
	if len(f.Backends()) != 2 {
		t.Fatalf("backends = %d after removal, want 2", len(f.Backends()))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(seed))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, rec.Code)
		}
		if got := rec.Header().Get("X-Fleet-Backend"); got == victim.id {
			t.Fatalf("removed backend still serving")
		}
	}
	if _, err := f.RemoveBackend("nope"); err == nil {
		t.Error("removing unknown backend accepted")
	}
}

// TestFleetCallerCancelIsNoBackendFailure: a send the caller cancels
// mid-flight says nothing about the backend, so a burst of cancelled
// requests (a sweep's polls when it is cancelled) never opens the breaker.
func TestFleetCallerCancelIsNoBackendFailure(t *testing.T) {
	fb := newFakeBackend(t, 200*time.Millisecond)
	fb.mode.Store("slow")
	f, _ := newTestFleet(t, Options{BreakerThreshold: 1}, fb)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		if _, err := f.do(ctx, http.MethodGet, "/v1/jobs/k/result", "k", nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("send %d: err %v, want context.Canceled", i, err)
		}
		cancel()
	}
	if got := f.Backends()[0].breaker.State(); got != BreakerClosed {
		t.Errorf("breaker %s after caller cancels, want closed", got)
	}
	if n := f.metrics.backendFailures.Load(); n != 0 {
		t.Errorf("backend failures = %d, want 0", n)
	}
}

// TestSweepCancelJobRetries: a sweep point's cancel is retried until the
// owner answers; a key whose DELETE keeps failing holds back no other
// key's cancel, and is given up and counted when the fleet closes or its
// retry window of cancelRetryTimeouts request timeouts runs out.
func TestSweepCancelJobRetries(t *testing.T) {
	var goodDeletes, goodAnswered, badDeletes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/good":
			if goodDeletes.Add(1) <= 5 {
				http.Error(w, "boom", http.StatusServiceUnavailable)
				return
			}
			goodAnswered.Add(1)
			w.Write([]byte(`{}`))
		case "/v1/jobs/bad":
			badDeletes.Add(1)
			http.Error(w, "boom", http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	newFleet := func(timeout time.Duration) *Fleet {
		f, err := New(Options{Backends: []string{ts.URL}, HealthInterval: -1, MaxAttempts: 2, BreakerThreshold: 1 << 20,
			BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, SweepPoll: time.Millisecond, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The coordinator cancels a sweep's keys one after another: the failing
	// key comes first.
	f := newFleet(time.Minute)
	sweepRunner{f}.CancelJob("bad")
	sweepRunner{f}.CancelJob("good")
	waitFor(t, 10*time.Second, func() bool { return goodAnswered.Load() == 1 })
	waitFor(t, 10*time.Second, func() bool { return badDeletes.Load() > 20 })
	f.Close()
	if n := goodDeletes.Load(); n != 6 {
		t.Errorf("good DELETEs sent = %d, want 6 (five 503s, then the answer)", n)
	}
	if n := f.metrics.exhausted.Load(); n != 1 {
		t.Errorf("exhausted = %d after one cancel given up at close, want 1", n)
	}

	// With nothing closing the fleet, the retry window ends the cancel.
	f = newFleet(20 * time.Millisecond)
	defer f.Close()
	sweepRunner{f}.CancelJob("bad")
	waitFor(t, 10*time.Second, func() bool { return f.metrics.exhausted.Load() == 1 })
}
