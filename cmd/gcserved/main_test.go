package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hwgc/internal/jobs"
	"hwgc/internal/server"
)

func TestParseOptionsDefaults(t *testing.T) {
	addr, opts, drain, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":8080" {
		t.Errorf("addr = %q, want :8080", addr)
	}
	if opts.QueueDepth != 64 || opts.CacheEntries != 1024 || opts.CacheBytes != 64<<20 {
		t.Errorf("unexpected defaults: %+v", opts)
	}
	if opts.RetryAfter != time.Second {
		t.Errorf("RetryAfter default = %s, want 1s", opts.RetryAfter)
	}
	if drain != 30*time.Second {
		t.Errorf("drain default = %s, want 30s", drain)
	}
}

func TestParseOptionsRetryAfterWiring(t *testing.T) {
	// The satellite regression: -retry-after must reach server.Options and
	// survive into the actual 429 Retry-After header, including sub-second
	// values which round up to 1, never 0.
	for _, tc := range []struct {
		flag string
		want string
	}{
		{"500ms", "1"},
		{"1s", "1"},
		{"3s", "3"},
		{"2500ms", "3"},
	} {
		_, opts, _, err := parseOptions([]string{"-retry-after", tc.flag})
		if err != nil {
			t.Fatalf("-retry-after %s: %v", tc.flag, err)
		}

		// Boot a server whose one runner and one queue slot are taken by
		// two long collects, so a third distinct POST gets a real 429.
		opts.Workers = 1
		opts.QueueDepth = 1
		srv, err := server.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		hold := func(seed int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body := fmt.Sprintf(`{"Bench":"search","Scale":16,"Seed":%d,"Config":{"Cores":1}}`, seed)
				req := httptest.NewRequest("POST", "/v1/collect", strings.NewReader(body)).WithContext(ctx)
				srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}()
		}
		waitPool := func(what string, ok func(jobs.PoolStats) bool) {
			for deadline := time.Now().Add(10 * time.Second); !ok(srv.Jobs().Pool()); {
				if time.Now().After(deadline) {
					t.Fatalf("pool never had %s: %+v", what, srv.Jobs().Pool())
				}
				time.Sleep(time.Millisecond)
			}
		}
		hold(1)
		waitPool("a running job", func(p jobs.PoolStats) bool { return p.Running == 1 })
		hold(2)
		waitPool("a queued job", func(p jobs.PoolStats) bool { return p.SyncQueued == 1 })

		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/collect", bytes.NewReader([]byte(`{"Bench":"jlisp","Seed":99,"Config":{}}`)))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 429 {
			t.Fatalf("-retry-after %s: status %d, want 429", tc.flag, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("-retry-after %s: header %q, want %q", tc.flag, got, tc.want)
		}
		cancel() // withdraws the queued job; the running one finishes
		wg.Wait()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseOptionsErrors(t *testing.T) {
	if _, _, _, err := parseOptions([]string{"-retry-after", "0s"}); err == nil {
		t.Error("zero -retry-after accepted")
	}
	if _, _, _, err := parseOptions([]string{"-retry-after", "-1s"}); err == nil {
		t.Error("negative -retry-after accepted")
	}
	if _, _, _, err := parseOptions([]string{"stray"}); err == nil {
		t.Error("stray positional argument accepted")
	}
	if _, _, _, err := parseOptions([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, _, _, err := parseOptions([]string{"-checkpoint-dir", t.TempDir()}); err == nil {
		t.Error("removed -checkpoint-dir flag accepted")
	}
	if _, _, _, err := parseOptions([]string{"-job-runners", "2"}); err == nil {
		t.Error("removed -job-runners flag accepted: -workers sizes the one pool")
	}
}

// TestParseOptionsJobsCheckpointFlags: -jobs-dir and -job-classes are
// wired, and the removed -checkpoint-cycles flag is refused, with or
// without -jobs-dir.
func TestParseOptionsJobsCheckpointFlags(t *testing.T) {
	dir := t.TempDir() + "/jobs"
	_, opts, _, err := parseOptions([]string{"-jobs-dir", dir, "-job-classes", "hi:4,lo:1"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.JobsDir != dir || opts.JobClasses != "hi:4,lo:1" {
		t.Errorf("job tier options not wired: %+v", opts)
	}
	if _, _, _, err := parseOptions([]string{"-jobs-dir", dir, "-checkpoint-cycles", "5000"}); err == nil {
		t.Error("removed -checkpoint-cycles flag accepted")
	}
}

func TestParseOptionsAllFlags(t *testing.T) {
	addr, opts, drain, err := parseOptions(strings.Fields(
		"-addr :9999 -workers 3 -queue 7 -cache-entries 11 -cache-mb 2 -timeout 5s -max-scale 9 -retry-after 2s -drain 1s"))
	if err != nil {
		t.Fatal(err)
	}
	want := server.Options{Workers: 3, QueueDepth: 7, CacheEntries: 11, CacheBytes: 2 << 20,
		Timeout: 5 * time.Second, MaxScale: 9, RetryAfter: 2 * time.Second}
	if addr != ":9999" || opts != want || drain != time.Second {
		t.Errorf("parsed addr=%q opts=%+v drain=%s", addr, opts, drain)
	}
}
