package cluster

import (
	"bytes"
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

// edgeHeaders are the headers a fleet hit must carry exactly as a proxied
// backend hit does.
var edgeHeaders = []string{"Content-Type", "X-Cache", "X-Cache-Key", "X-Fleet-Backend"}

// TestEdgeCacheSecondSightingAdmission: the first sighting of a key is
// proxied and not stored, the second is proxied and stored, and from the
// third on the fleet answers with no backend exchange.
func TestEdgeCacheSecondSightingAdmission(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
	f, _ := newTestFleet(t, Options{}, fakes...)
	exchanges := func() int64 { return fakes[0].requests.Load() + fakes[1].requests.Load() }

	body := collectBody(3)
	var second *httptest.ResponseRecorder
	for i, want := range []int64{1, 2, 2, 2} {
		rec := fleetPost(t, f.Handler(), "/v1/collect", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i+1, rec.Code)
		}
		if got := exchanges(); got != want {
			t.Fatalf("after request %d: %d backend exchanges, want %d", i+1, got, want)
		}
		switch i {
		case 0:
			if n := f.edge.Len(); n != 0 {
				t.Fatalf("first sighting admitted: %d entries", n)
			}
		case 1:
			second = rec
			if n := f.edge.Len(); n != 1 {
				t.Fatalf("second sighting not admitted: %d entries", n)
			}
		default:
			if rec.Header().Get("X-Cache") != "HIT" {
				t.Errorf("request %d: X-Cache %q, want HIT", i+1, rec.Header().Get("X-Cache"))
			}
			if got, want := rec.Header().Get("X-Fleet-Backend"), second.Header().Get("X-Fleet-Backend"); got != want {
				t.Errorf("request %d: X-Fleet-Backend %q, want the producing backend %q", i+1, got, want)
			}
			if !bytes.Equal(rec.Body.Bytes(), second.Body.Bytes()) {
				t.Errorf("request %d: hit body differs from the stored reply", i+1)
			}
		}
	}
	if h, m := f.metrics.cacheHits.Load(), f.metrics.cacheMisses.Load(); h != 2 || m != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", h, m)
	}
	scrape := httptest.NewRecorder()
	f.Handler().ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"gcfleet_cache_hits_total 2\n",
		"gcfleet_cache_misses_total 2\n",
		fmt.Sprintf("gcfleet_cache_bytes %d\n", second.Body.Len()),
	} {
		if !strings.Contains(scrape.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEdgeCacheDisabled: a negative bound turns the edge cache off, so
// every repeat reaches a backend.
func TestEdgeCacheDisabled(t *testing.T) {
	fb := newFakeBackend(t, 0)
	f, _ := newTestFleet(t, Options{CacheBytes: -1}, fb)
	for i := 0; i < 4; i++ {
		if rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(3)); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if got := fb.requests.Load(); got != 4 {
		t.Errorf("%d backend exchanges for 4 requests with the cache off, want 4", got)
	}
	if f.metrics.cacheHits.Load() != 0 || f.metrics.cacheMisses.Load() != 0 {
		t.Error("a disabled cache counted lookups")
	}
}

// TestEdgeCacheStoresOnly200: 400s, surfaced 429s and exhausted 5xx
// replies are never stored, however often the key is seen.
func TestEdgeCacheStoresOnly200(t *testing.T) {
	for _, mode := range []string{"reject", "busy", "fail"} {
		t.Run(mode, func(t *testing.T) {
			fb := newFakeBackend(t, 0)
			f, _ := newTestFleet(t, Options{MaxAttempts: 2, BreakerThreshold: 100}, fb)
			fb.mode.Store(mode)
			for i := 0; i < 4; i++ {
				before := fb.requests.Load()
				rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(5))
				if rec.Code == http.StatusOK {
					t.Fatalf("request %d: 200 from a %s backend", i+1, mode)
				}
				if fb.requests.Load() == before {
					t.Fatalf("request %d: %d answered with no backend exchange", i+1, rec.Code)
				}
			}
			if n := f.edge.Len(); n != 0 {
				t.Fatalf("%d non-200 replies stored", n)
			}
			// The key has been sighted, so its first 200 is stored and the
			// next request is a fleet hit.
			fb.mode.Store("ok")
			if rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(5)); rec.Header().Get("X-Cache") != "MISS" {
				t.Fatalf("recovered reply X-Cache %q, want the backend's MISS", rec.Header().Get("X-Cache"))
			}
			before := fb.requests.Load()
			if rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(5)); rec.Header().Get("X-Cache") != "HIT" {
				t.Fatalf("X-Cache %q after a stored 200, want HIT", rec.Header().Get("X-Cache"))
			}
			if fb.requests.Load() != before {
				t.Error("fleet hit reached a backend")
			}
		})
	}
}

// TestEdgeCacheBoundsUnderConcurrency: concurrent clients repeating keys
// never push the cache past its entry or byte bound, and every reply is
// the key's own body.
func TestEdgeCacheBoundsUnderConcurrency(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries int
		bytes   int64
	}{
		{"entries", 5, 64 << 20},
		{"bytes", 1024, 500}, // a fake reply is ~100 bytes: about five fit
	} {
		t.Run(tc.name, func(t *testing.T) {
			fakes := []*fakeBackend{newFakeBackend(t, 0), newFakeBackend(t, 0)}
			f, _ := newTestFleet(t, Options{CacheEntries: tc.entries, CacheBytes: tc.bytes}, fakes...)
			const clients, keys, rounds = 6, 24, 4
			var wg sync.WaitGroup
			var over atomic.Int64
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < keys*rounds; i++ {
						seed := int64((i*7+c*5)%keys) + 1
						body := collectBody(seed)
						rec := fleetPost(t, f.Handler(), "/v1/collect", body)
						want := fmt.Sprintf(`{"Echo":%q,"Path":"/v1/collect"}`, hwgc.KeyBytes(body))
						if rec.Code != http.StatusOK || rec.Body.String() != want {
							errs <- fmt.Errorf("seed %d: %d %s", seed, rec.Code, rec.Body.String())
							return
						}
						if f.edge.Len() > tc.entries || f.edge.Bytes() > tc.bytes {
							over.Add(1)
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if over.Load() > 0 {
				t.Errorf("cache exceeded its bounds %d times", over.Load())
			}
			if f.metrics.cacheHits.Load() == 0 {
				t.Error("no fleet hits: the bound test never exercised the cache")
			}
		})
	}
}

// TestEdgeCacheHitMatchesBackend runs the fleet over live gcserved
// backends: for a collect and a sweep, the fleet hit carries the same body
// and headers as the reply before it, whose points all hit a backend
// cache, reaches no backend, and equals the in-process
// NewCollectResponse/NewSweepResponse+Encode bytes. An assembled sweep
// names no backend: its points may come from several.
func TestEdgeCacheHitMatchesBackend(t *testing.T) {
	var exchanges atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		s, _ := startGCServed(t)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			exchanges.Add(1)
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	f, err := New(Options{Backends: urls, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	collect := hwgc.CollectRequest{Bench: "jlisp", Seed: 4, Config: hwgc.Config{Cores: 2}}
	resp, err := hwgc.NewCollectResponse(collect)
	if err != nil {
		t.Fatal(err)
	}
	var ref, sweepRef bytes.Buffer
	if err := resp.Encode(&ref); err != nil {
		t.Fatal(err)
	}
	sresp, err := hwgc.NewSweepResponse(hwgc.SweepRequest{Bench: "jlisp", Cores: []int{1, 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sresp.Encode(&sweepRef); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		ref        []byte
		headers    []string
	}{
		{"/v1/collect", `{"Bench":"jlisp","Seed":4,"Config":{"Cores":2}}`, ref.Bytes(), edgeHeaders},
		{"/v1/sweep", `{"Bench":"jlisp","Cores":[1,2],"Seed":4,"Config":{}}`, sweepRef.Bytes(), edgeHeaders[:3]},
	} {
		post := func() (http.Header, []byte) {
			t.Helper()
			res, err := http.Post(fleet.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			b, err := io.ReadAll(res.Body)
			if err != nil {
				t.Fatal(err)
			}
			if res.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.path, res.StatusCode, b)
			}
			return res.Header, b
		}
		if hdr, _ := post(); hdr.Get("X-Cache") != "MISS" { // first sighting: proxied, backend MISS
			t.Fatalf("%s: first reply X-Cache %q, want MISS", tc.path, hdr.Get("X-Cache"))
		}
		proxiedHdr, proxied := post()
		if proxiedHdr.Get("X-Cache") != "HIT" {
			t.Fatalf("%s: second reply X-Cache %q, want the owner's HIT", tc.path, proxiedHdr.Get("X-Cache"))
		}
		before := exchanges.Load()
		hitHdr, hit := post()
		if exchanges.Load() != before {
			t.Errorf("%s: the third request reached a backend", tc.path)
		}
		if !bytes.Equal(hit, proxied) {
			t.Errorf("%s: fleet hit body differs from the proxied reply", tc.path)
		}
		if !bytes.Equal(hit, tc.ref) {
			t.Errorf("%s: fleet hit body differs from the in-process reference", tc.path)
		}
		for _, h := range tc.headers {
			if got, want := hitHdr.Get(h), proxiedHdr.Get(h); got != want || got == "" {
				t.Errorf("%s: header %s = %q on the fleet hit, %q on the proxied reply", tc.path, h, got, want)
			}
		}
		if tc.path == "/v1/sweep" {
			if b := hitHdr.Get("X-Fleet-Backend") + proxiedHdr.Get("X-Fleet-Backend"); b != "" {
				t.Errorf("assembled sweep names backend %q", b)
			}
			if key, _ := (&hwgc.SweepRequest{Bench: "jlisp", Cores: []int{1, 2}, Seed: 4}).Key(); hitHdr.Get("X-Cache-Key") != key {
				t.Errorf("sweep X-Cache-Key %q, want the sweep key %q", hitHdr.Get("X-Cache-Key"), key)
			}
		}
	}
}

// TestFleetDecodesLikeGCServed: the fleet rejects exactly what a backend
// rejects, on each endpoint it decodes, with the same reply bytes.
func TestFleetDecodesLikeGCServed(t *testing.T) {
	_, backend := startJobsBackend(t)
	f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	type row struct {
		name, path, body string
		want             int
	}
	rows := []row{
		{"collect trailing newline", "/v1/collect", memoCollect + "\n", http.StatusOK},
		{"sweep trailing newline", "/v1/sweep", memoSweep + "\n", http.StatusOK},
		{"sweeps trailing newline", "/v1/sweeps", memoSpace + "\n", http.StatusAccepted},
	}
	for _, tc := range decodeRejects {
		rows = append(rows, row{tc.name, tc.path, tc.body, http.StatusBadRequest})
	}
	for _, tc := range rows {
		direct := frontPost(t, backend.URL+tc.path, tc.body)
		via := frontPost(t, fleet.URL+tc.path, tc.body)
		if direct.status != tc.want || via.status != direct.status {
			t.Errorf("%s: fleet status %d, gcserved status %d, want both %d", tc.name, via.status, direct.status, tc.want)
		}
		// An accepted sweep's reply carries its submission time, so only
		// its status can match.
		if tc.want != http.StatusAccepted && !bytes.Equal(via.body, direct.body) {
			t.Errorf("%s: fleet body %s, gcserved body %s", tc.name, via.body, direct.body)
		}
	}
}

// TestFleetRejectsOversizedReply: a backend reply longer than the proxy
// limit is a 502, never a truncated 200, and is never cached; a reply of
// exactly the limit passes through whole.
func TestFleetRejectsOversizedReply(t *testing.T) {
	const limit = 64
	var exchanges atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		exchanges.Add(1)
		n := limit
		if r.URL.Path != "/v1/workloads" {
			n++
		}
		w.Write(bytes.Repeat([]byte("x"), n))
	}))
	defer ts.Close()
	f, err := New(Options{Backends: []string{ts.URL}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.replyLimit = limit

	for i := 0; i < 3; i++ {
		rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(1))
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("oversized reply %d: status %d, want 502", i+1, rec.Code)
		}
	}
	if got := exchanges.Load(); got != 3 {
		t.Errorf("%d exchanges for 3 oversized replies, want 3 (one each, never cached)", got)
	}
	if b := f.Backends()[0]; b.breaker.State() != BreakerClosed || b.errors.Load() != 0 {
		t.Errorf("an oversized reply was charged to the backend as a failure")
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != limit {
		t.Errorf("reply at the limit: status %d, %d bytes; want 200 and %d", rec.Code, rec.Body.Len(), limit)
	}
}
