package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/server"
)

// startGCServed boots one real in-process gcserved behind an httptest
// listener and returns both handles.
func startGCServed(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Options{Workers: 2, Timeout: 30 * time.Second})
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

// TestFleetEndToEnd is the acceptance test from the issue: three real
// in-process gcserved backends behind one gcfleet, a mixed collect/sweep
// batch driven through it, one backend killed mid-run, and then:
//
//   - every item eventually succeeds or is reported as a per-item failure
//     (no hung requests),
//   - responses are byte-identical to a single-node gcserved given the
//     same plans,
//   - /metrics shows the breaker opening and the routing redistribution.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test boots real simulators")
	}

	var backends []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := startGCServed(t)
		backends = append(backends, ts)
	}
	// A standalone single-node gcserved as the byte-identity reference.
	_, reference := startGCServed(t)

	f, err := New(Options{
		Backends:         []string{backends[0].URL, backends[1].URL, backends[2].URL},
		MaxAttempts:      4,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // keep the kill visible in /metrics
		HealthInterval:   -1,        // deterministic: traffic drives the breaker
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
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

	// Single-request byte-identity: the fleet proxies the backend's reply
	// verbatim, and the deterministic simulator makes every node agree.
	collect := []byte(`{"Bench":"jlisp","Seed":11,"Config":{"Cores":2}}`)
	fres, fleetBody := post(fleet.URL+"/v1/collect", collect)
	rres, refBody := post(reference.URL+"/v1/collect", collect)
	if fres.StatusCode != http.StatusOK || rres.StatusCode != http.StatusOK {
		t.Fatalf("collect statuses: fleet %d, reference %d", fres.StatusCode, rres.StatusCode)
	}
	if !bytes.Equal(fleetBody, refBody) {
		t.Fatalf("fleet reply is not byte-identical to single-node gcserved:\nfleet: %s\nref:   %s",
			fleetBody, refBody)
	}
	if fres.Header.Get("X-Fleet-Backend") == "" {
		t.Error("fleet reply missing X-Fleet-Backend")
	}

	// A mixed collect/sweep batch whose seeds start after seedBase.
	const items = 24
	makeBatch := func(seedBase int64) []byte {
		var batch hwgc.BatchRequest
		for i := 0; i < items; i++ {
			seed := seedBase + int64(i+1)
			if i%4 == 3 {
				batch.Items = append(batch.Items, hwgc.BatchItem{Sweep: &hwgc.SweepRequest{
					Bench: "db", Cores: []int{1, 2}, Seed: seed,
				}})
			} else {
				batch.Items = append(batch.Items, hwgc.BatchItem{Collect: &hwgc.CollectRequest{
					Bench: "jlisp", Seed: seed, Config: hwgc.Config{Cores: 2},
				}})
			}
		}
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	batchBody := makeBatch(0)

	// Warm run with all three backends up: must match the single node
	// byte-for-byte (same BatchResponse encoding, same per-item bodies).
	bres, fleetBatch := post(fleet.URL+"/v1/batch", batchBody)
	if bres.StatusCode != http.StatusOK {
		t.Fatalf("warm batch status %d: %s", bres.StatusCode, fleetBatch)
	}
	rbres, refBatch := post(reference.URL+"/v1/batch", batchBody)
	if rbres.StatusCode != http.StatusOK {
		t.Fatalf("reference batch status %d", rbres.StatusCode)
	}
	if !bytes.Equal(fleetBatch, refBatch) {
		t.Fatal("fleet batch response is not byte-identical to single-node gcserved")
	}

	// Kill one backend mid-run: fire the batch concurrently with the kill.
	victim := backends[1]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		victim.CloseClientConnections()
		victim.Close()
	}()
	// Drive several batches through the degraded fleet; each must complete
	// (the client timeout above would fail the test on any hung request).
	// Each round has seeds of its own, so no cache on the fleet or the
	// backends can answer it and every round reaches the victim's keys.
	for round := 0; round < 3; round++ {
		kres, killBatch := post(fleet.URL+"/v1/batch", makeBatch(int64(100*(round+1))))
		if kres.StatusCode != http.StatusOK && kres.StatusCode != http.StatusMultiStatus {
			t.Fatalf("degraded batch round %d: status %d", round, kres.StatusCode)
		}
		br, err := hwgc.DecodeBatchResponse(bytes.NewReader(killBatch))
		if err != nil {
			t.Fatalf("degraded batch round %d undecodable: %v", round, err)
		}
		if len(br.Items) != items {
			t.Fatalf("degraded batch round %d returned %d items, want %d", round, len(br.Items), items)
		}
		for i, it := range br.Items {
			switch {
			case it.Status == http.StatusOK:
				if len(it.Body) == 0 {
					t.Fatalf("round %d item %d: 200 with empty body", round, i)
				}
			case it.Error == "":
				t.Fatalf("round %d item %d: failure status %d without an error report", round, i, it.Status)
			}
		}
	}
	wg.Wait()

	// With the victim's breaker open the fleet must again be fully
	// healthy from the caller's perspective: the ring routed its keys to
	// the surviving replicas, so the same batch now comes back all-OK and
	// still byte-identical to the single node.
	waitFor(t, 5*time.Second, func() bool {
		res, body := post(fleet.URL+"/v1/batch", batchBody)
		return res.StatusCode == http.StatusOK && bytes.Equal(body, refBatch)
	})

	// /metrics: breaker opened on the killed backend, and traffic
	// redistributed (failovers counted, surviving backends routed to).
	mres, err := client.Get(fleet.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mres.Body)
	mres.Body.Close()
	text := mbuf.String()

	var victimID string
	for _, b := range f.Backends() {
		if strings.HasSuffix(b.baseURL, victim.Listener.Addr().String()) {
			victimID = b.id
		}
	}
	if victimID == "" {
		t.Fatal("victim backend not found in fleet")
	}
	for _, want := range []string{
		fmt.Sprintf("gcfleet_breaker_state{backend=%q} 1", victimID),
		fmt.Sprintf("gcfleet_breaker_opens_total{backend=%q} 1", victimID),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if f.metrics.failovers.Load() == 0 {
		t.Error("no failovers counted after killing a backend")
	}
	survivors := 0
	for _, b := range f.Backends() {
		if b.id != victimID && f.metrics.routed.With(b.id).Load() > 0 {
			survivors++
		}
	}
	if survivors != 2 {
		t.Errorf("only %d surviving backends took traffic, want 2", survivors)
	}
}

// TestFleetSweepRoutesPointsByCollectKey: a default five-point /v1/sweep
// through a three-backend fleet runs each point as a /v1/collect on the
// ring owner of that point's collect key, so the points spread over more
// than one backend; the assembled reply is byte-identical to a single
// gcserved's; and an immediate repeat is answered entirely from cache.
func TestFleetSweepRoutesPointsByCollectKey(t *testing.T) {
	type exchange struct {
		backend          int
		path, key, cache string
	}
	var (
		mu   sync.Mutex
		seen []exchange
		urls []string
	)
	for i := 0; i < 3; i++ {
		s, _ := startGCServed(t)
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, r)
			if r.URL.Path != "/healthz" {
				mu.Lock()
				seen = append(seen, exchange{i, r.URL.Path, hwgc.KeyBytes(body), rec.Header().Get("X-Cache")})
				mu.Unlock()
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	_, reference := startGCServed(t)
	f, err := New(Options{Backends: urls, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	// Ring placement depends on the backends' (random) ports: take the
	// first seed whose points have more than one owner, so the spread is
	// there to observe.
	var (
		req   hwgc.SweepRequest
		pts   []hwgc.SweepPoint
		owner = map[string]string{} // point key -> owner base URL
	)
	for seed := int64(1); ; seed++ {
		if seed > 100 {
			t.Fatal("no seed in 1..100 spreads the points over two owners")
		}
		req = hwgc.SweepRequest{Bench: "jlisp", Seed: seed}
		if pts, err = req.Points(); err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		for _, p := range pts {
			owner[p.Key] = f.primaryFor(p.Key).baseURL
			owners[owner[p.Key]] = true
		}
		if len(owners) > 1 {
			break
		}
	}
	if len(pts) != len(hwgc.PaperCoreCounts) {
		t.Fatalf("default sweep has %d points, want %d", len(pts), len(hwgc.PaperCoreCounts))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	sweepKey, _ := req.Key()
	post := func(url string) (*http.Response, []byte) {
		t.Helper()
		res, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, res.StatusCode, b)
		}
		return res, b
	}
	_, want := post(reference.URL)

	for round, wantCache := range []string{"MISS", "HIT"} {
		mu.Lock()
		seen = nil
		mu.Unlock()
		res, got := post(fleet.URL)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: fleet sweep differs from single-node gcserved", round)
		}
		if res.Header.Get("X-Cache") != wantCache || res.Header.Get("X-Cache-Key") != sweepKey {
			t.Errorf("round %d: X-Cache %q, X-Cache-Key %q; want %q and the sweep key", round,
				res.Header.Get("X-Cache"), res.Header.Get("X-Cache-Key"), wantCache)
		}
		if b := res.Header.Get("X-Fleet-Backend"); b != "" {
			t.Errorf("round %d: assembled sweep names backend %q", round, b)
		}
		mu.Lock()
		got1 := append([]exchange(nil), seen...)
		mu.Unlock()
		if len(got1) != len(pts) {
			t.Fatalf("round %d: %d backend exchanges, want one per point (%d): %+v", round, len(got1), len(pts), got1)
		}
		used := map[int]bool{}
		for _, ex := range got1 {
			if ex.path != "/v1/collect" || urls[ex.backend] != owner[ex.key] || ex.cache != wantCache {
				t.Errorf("round %d: exchange %+v; want a /v1/collect %s on owner %s", round, ex, wantCache, owner[ex.key])
			}
			used[ex.backend] = true
		}
		if len(used) < 2 {
			t.Errorf("round %d: points ran on %d backend(s), want more than one", round, len(used))
		}
	}
}
