package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

	// Build a mixed collect/sweep batch.
	const items = 24
	var batch hwgc.BatchRequest
	for i := 0; i < items; i++ {
		if i%4 == 3 {
			batch.Items = append(batch.Items, hwgc.BatchItem{Sweep: &hwgc.SweepRequest{
				Bench: "db", Cores: []int{1, 2}, Seed: int64(i + 1),
			}})
		} else {
			batch.Items = append(batch.Items, hwgc.BatchItem{Collect: &hwgc.CollectRequest{
				Bench: "jlisp", Seed: int64(i + 1), Config: hwgc.Config{Cores: 2},
			}})
		}
	}
	batchBody, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

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
	for round := 0; round < 3; round++ {
		kres, killBatch := post(fleet.URL+"/v1/batch", batchBody)
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
