package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hwgc"
)

// TestLoadBackpressureBoundedAndCacheIdentity is the subsystem's load test,
// meant to run under the race detector (CI uses go test -race): 200+
// concurrent requests against a deliberately small queue, real simulations,
// asserting that
//
//   - the only outcomes are 200 and deliberate 429 backpressure,
//   - the bounded queue and the bounded cache never exceed their limits
//     (bounded memory), and
//   - repeated requests are served from the cache byte-identically.
func TestLoadBackpressureBoundedAndCacheIdentity(t *testing.T) {
	opts := Options{
		Workers:      4,
		QueueDepth:   8,
		CacheEntries: 64,
		CacheBytes:   8 << 20,
		Timeout:      60 * time.Second,
	}
	// Real simulations, slowed enough that service time dominates request
	// arrival jitter — otherwise the workers drain the queue faster than
	// the client can fill it and backpressure never engages.
	s, err := newServer(opts, func(req hwgc.CollectRequest) ([]byte, error) {
		time.Sleep(10 * time.Millisecond)
		resp, err := hwgc.NewCollectResponse(req)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		err = resp.Encode(&b)
		return b.Bytes(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 256}
	doPost := func(seed int) (int, []byte) {
		body := fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{"Cores":2}}`, seed)
		resp, err := client.Post(ts.URL+"/v1/collect", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		return resp.StatusCode, data
	}

	// Phase A — backpressure: 200 concurrent requests with 200 distinct
	// seeds (every one a cache miss) against a queue of 8 over 4 workers.
	const stormN = 200
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses = map[int]int{}
		maxDepth int
	)
	release := make(chan struct{}) // start barrier: fire all at once
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			code, _ := doPost(1000 + i)
			d := s.jobs.Pool().SyncQueued
			mu.Lock()
			statuses[code]++
			if d > maxDepth {
				maxDepth = d
			}
			mu.Unlock()
		}(i)
	}
	close(release)
	wg.Wait()

	if statuses[http.StatusOK]+statuses[http.StatusTooManyRequests] != stormN {
		t.Fatalf("outcomes other than 200/429 under load: %v", statuses)
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("nothing succeeded under load: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no backpressure despite 200 concurrent misses on a depth-8 queue: %v", statuses)
	}
	if maxDepth > opts.QueueDepth {
		t.Fatalf("queue depth %d exceeded its bound %d", maxDepth, opts.QueueDepth)
	}
	if got := s.cache.Len(); got > opts.CacheEntries {
		t.Fatalf("cache holds %d entries, bound %d", got, opts.CacheEntries)
	}
	if got := s.cache.Bytes(); got > opts.CacheBytes {
		t.Fatalf("cache holds %d bytes, bound %d", got, opts.CacheBytes)
	}
	if got := s.metrics.queueFull.Load(); got != int64(statuses[http.StatusTooManyRequests]) {
		t.Fatalf("queue_full_total %d != %d observed 429s", got, statuses[http.StatusTooManyRequests])
	}

	// Phase B — cache identity: warm 4 variants, then 200 concurrent
	// repeats across them must all hit the cache byte-identically.
	warm := make(map[int][]byte, 4)
	for v := 0; v < 4; v++ {
		code, body := doPost(v + 1)
		if code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", v, code)
		}
		warm[v] = body
	}
	hitsBefore := s.metrics.cacheHits.Load()
	var identityErrs sync.Map
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := i % 4
			code, body := doPost(v + 1)
			if code != http.StatusOK {
				identityErrs.Store(fmt.Sprintf("req %d status %d", i, code), true)
				return
			}
			if !bytes.Equal(body, warm[v]) {
				identityErrs.Store(fmt.Sprintf("req %d variant %d not byte-identical", i, v), true)
			}
		}(i)
	}
	wg.Wait()
	identityErrs.Range(func(k, _ any) bool {
		t.Error(k)
		return true
	})
	if got := s.metrics.cacheHits.Load() - hitsBefore; got != stormN {
		t.Fatalf("cache hits during repeat storm: %d, want %d", got, stormN)
	}

	// Drain cleanly; every admitted job must complete.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after load: %v", err)
	}
	if started, done := s.jobs.Pool().Started, s.jobs.Pool().Done; started != done {
		t.Fatalf("jobs started %d != done %d after drain", started, done)
	}
}
