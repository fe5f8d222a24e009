package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hwgc"
)

// TestGracefulShutdownDrains checks the drain contract: every job admitted
// before Shutdown is executed to completion and answered with 200, new
// submissions are refused with 503, and Shutdown returns only after the
// pool has drained.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 16)
	s, err := newServer(Options{Workers: 1, QueueDepth: 8}, func(req hwgc.CollectRequest) ([]byte, error) {
		started <- struct{}{}
		time.Sleep(100 * time.Millisecond)
		return []byte(fmt.Sprintf(`{"Seed":%d}`, req.Seed)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Admit three jobs: one running, two queued behind it.
	const n = 3
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses []int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{}}`, i+1)
			resp, _ := post(t, ts, "/v1/collect", body)
			mu.Lock()
			statuses = append(statuses, resp.StatusCode)
			mu.Unlock()
		}(i)
	}
	<-started // the first job is on the worker
	// Wait until the other two are actually admitted to the queue; only
	// admitted jobs are covered by the drain guarantee.
	for deadline := time.Now().Add(5 * time.Second); s.jobs.Pool().SyncQueued < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never queued (depth %d)", s.jobs.Pool().SyncQueued)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownStart := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	drainTime := time.Since(shutdownStart)

	// Shutdown must not have returned before the queued jobs ran
	// (3 × 100ms serialized on one worker, minus what already elapsed).
	if s.jobs.Pool().Done != n {
		t.Fatalf("drained %d jobs, want %d (drain took %s)", s.jobs.Pool().Done, n, drainTime)
	}

	wg.Wait()
	for _, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("admitted job answered %d, want 200 (all: %v)", code, statuses)
		}
	}

	// New work is refused once shutdown has begun.
	resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Seed":99,"Config":{}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d (%s), want 503", resp.StatusCode, body)
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestShutdownHonorsContext checks that a too-short drain budget surfaces
// as ctx.Err instead of hanging.
func TestShutdownHonorsContext(t *testing.T) {
	s, err := newServer(Options{Workers: 1, QueueDepth: 4}, func(req hwgc.CollectRequest) ([]byte, error) {
		time.Sleep(300 * time.Millisecond)
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{}}`)
	}()
	time.Sleep(50 * time.Millisecond) // let the job reach the worker

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("shutdown returned nil despite an in-flight 300ms job and a 10ms budget")
	}
	<-done
	// Let the background drain finish so the test leaves no goroutines.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Shutdown(ctx2); err != nil {
		t.Fatalf("final drain: %v", err)
	}
}

// TestShutdownTwice shuts a server down twice, with and without a jobs
// directory: the second Shutdown returns nil, and the WAL is closed once.
func TestShutdownTwice(t *testing.T) {
	for _, mode := range []string{"memory", "dir"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{Workers: 1}
			if mode == "dir" {
				opts.JobsDir = t.TempDir()
			}
			s, ts := newTestServer(t, opts)
			if resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("collect: status %d: %s", resp.StatusCode, body)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 1; i <= 2; i++ {
				if err := s.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown %d: %v", i, err)
				}
			}
		})
	}
}
