package main

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/server"
)

// TestLoadAgainstLiveServer is the acceptance check of the serving
// subsystem end to end: gcload drives a real in-process gcserved instance
// at ≥100 concurrent in-flight requests; the only tolerated non-200
// outcome is deliberate 429 backpressure, and repeated requests must come
// back byte-identical.
func TestLoadAgainstLiveServer(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server drain: %v", err)
		}
	}()

	rep, err := runLoad(loadConfig{
		url:      ts.URL,
		requests: 400,
		workers:  120,
		bench:    "jlisp",
		cores:    4,
		scale:    1,
		distinct: 4,
		timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		rep.print(testWriter{t})
		t.Fatal("load run reported failure")
	}
	if rep.statuses[200] == 0 {
		t.Fatalf("no successful requests: %v", rep.statuses)
	}
	if rep.statuses[200]+rep.statuses[429] != 400 {
		t.Fatalf("unexpected outcomes: %v (transport errors %d)", rep.statuses, rep.transport)
	}
	if rep.mismatch != 0 {
		t.Fatalf("%d responses were not byte-identical to their first occurrence", rep.mismatch)
	}
	if len(rep.latencies) != 400 {
		t.Fatalf("recorded %d latencies, want 400", len(rep.latencies))
	}
	if rep.percentile(0.5) <= 0 || rep.percentile(0.99) < rep.percentile(0.5) {
		t.Fatalf("implausible percentiles: p50 %s p99 %s", rep.percentile(0.5), rep.percentile(0.99))
	}
}

// TestHierarchyLoadAgainstLiveServer drives the -numa/-placement/-cache
// flags against a real gcserved: hierarchy-enabled requests must succeed and
// stay byte-identical across repeats, exactly like the flat path.
func TestHierarchyLoadAgainstLiveServer(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server drain: %v", err)
		}
	}()

	rep, err := runLoad(loadConfig{
		url:       ts.URL,
		requests:  60,
		workers:   20,
		bench:     "jlisp",
		cores:     4,
		scale:     1,
		distinct:  2,
		numa:      2,
		placement: "local",
		cache:     16,
		timeout:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		rep.print(testWriter{t})
		t.Fatal("hierarchy load run reported failure")
	}
	if rep.statuses[200] == 0 {
		t.Fatalf("no successful requests: %v", rep.statuses)
	}
	if rep.mismatch != 0 {
		t.Fatalf("%d hierarchy responses were not byte-identical to their first occurrence", rep.mismatch)
	}
}

// TestLoadConfigHierarchy pins the flag-to-config mapping: -numa selects the
// domain count and placement, -cache the L1 set count, and leaving them at
// their zero values keeps the generated config flat (bit-identical requests
// with pre-hierarchy gcload builds).
func TestLoadConfigHierarchy(t *testing.T) {
	cfg := loadConfig{cores: 4, numa: 2, placement: "local", cache: 16}
	c := cfg.config()
	if c.NUMADomains != 2 || c.NUMAPlacement != hwgc.PlacementLocal {
		t.Fatalf("NUMA flags not mapped: %+v", c)
	}
	if c.L1Sets != 16 {
		t.Fatalf("-cache not mapped to L1Sets: %+v", c)
	}
	flat := loadConfig{cores: 4}
	if got := flat.config(); got != (hwgc.Config{Cores: 4}) {
		t.Fatalf("flat config grew fields: %+v", got)
	}
}

// TestBatchLoadAgainstLiveServer drives the -batch mode against a real
// gcserved: every batch must come back 200 or 207, per-item failures other
// than backpressure are errors, and fully-successful batches must be
// byte-identical across repeats.
func TestBatchLoadAgainstLiveServer(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server drain: %v", err)
		}
	}()

	rep, err := runLoad(loadConfig{
		url:      ts.URL,
		requests: 40,
		workers:  8,
		bench:    "jlisp",
		cores:    2,
		scale:    1,
		distinct: 4,
		batch:    8,
		timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		rep.print(testWriter{t})
		t.Fatal("batch load run reported failure")
	}
	if rep.itemsOK+rep.items429 != 40*8 {
		t.Fatalf("item outcomes ok=%d 429=%d failed=%d, want %d total",
			rep.itemsOK, rep.items429, rep.itemsFailed, 40*8)
	}
	if rep.mismatch != 0 {
		t.Fatalf("%d fully-successful batches were not byte-identical", rep.mismatch)
	}
}

// TestAsyncLoadAgainstLiveServer drives the -async mode end to end against
// a jobs-enabled gcserved: every logical request must submit, poll and
// complete with a byte-identical result, and the report must carry the two
// separate latency distributions.
func TestAsyncLoadAgainstLiveServer(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 2, JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server drain: %v", err)
		}
	}()

	rep, err := runLoad(loadConfig{
		url:      ts.URL,
		requests: 60,
		workers:  20,
		bench:    "jlisp",
		cores:    2,
		scale:    1,
		distinct: 4,
		async:    true,
		poll:     2 * time.Millisecond,
		timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		rep.print(testWriter{t})
		t.Fatal("async load run reported failure")
	}
	if rep.statuses[200] != 60 {
		t.Fatalf("want 60 completed jobs, got %v (transport %d)", rep.statuses, rep.transport)
	}
	if rep.mismatch != 0 {
		t.Fatalf("%d job results were not byte-identical across repeats", rep.mismatch)
	}
	if len(rep.submitLats) != 60 || len(rep.latencies) != 60 {
		t.Fatalf("recorded %d submit and %d e2e latencies, want 60 each",
			len(rep.submitLats), len(rep.latencies))
	}
	if percentileOf(rep.submitLats, 0.5) <= 0 || rep.percentile(0.5) <= 0 {
		t.Fatal("implausible zero medians")
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := runLoad(loadConfig{requests: 0, workers: 1}); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "no-such-bench"}); err == nil {
		t.Error("unknown benchmark accepted (request canonicalization should reject it)")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "jlisp", batch: 100000}); err == nil {
		t.Error("oversized -batch accepted")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "no-such-bench", batch: 4}); err == nil {
		t.Error("unknown benchmark accepted in batch mode")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "jlisp", async: true, batch: 4, poll: time.Millisecond}); err == nil {
		t.Error("-async with -batch accepted")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "jlisp", async: true, sweepReq: true, poll: time.Millisecond}); err == nil || !strings.Contains(err.Error(), "drop -async") {
		t.Errorf("-async with -sweepreq: err %v, want a rejection saying to drop -async", err)
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "jlisp", class: "interactive"}); err == nil {
		t.Error("-class without -async accepted")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "jlisp", async: true}); err == nil {
		t.Error("-async with zero -poll accepted")
	}
	if _, err := runLoad(loadConfig{requests: 1, workers: 1, bench: "no-such-bench", async: true, poll: time.Millisecond}); err == nil {
		t.Error("unknown benchmark accepted in async mode")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestSweepModeAgainstLiveServer drives -sweep end to end: submit a small
// spec to a jobs-enabled gcserved, follow the SSE stream to the terminal
// event and verify the report covers convergence and the top frontier. A
// second run must dedupe onto the finished sweep and still succeed.
func TestSweepModeAgainstLiveServer(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 2, JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server drain: %v", err)
		}
	}()

	spec := filepath.Join(t.TempDir(), "spec.json")
	body := `{"Benches":["jlisp"],"Seeds":[7],"Base":{},"Axes":[{"Field":"Cores","Values":[1,2,4]}]}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := loadConfig{url: ts.URL, sweepSpec: spec, timeout: 60 * time.Second}
	var out strings.Builder
	ok, err := runSpaceMode(cfg, &out)
	if err != nil {
		t.Fatalf("sweep mode: %v\n%s", err, out.String())
	}
	if !ok {
		t.Fatalf("sweep mode reported failure:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"3 points", "objective speedup-per-core", "accepted",
		"done in", "completed 3  failed 0", "frontier converged", "#1 bench=jlisp"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// Resubmitting the identical space must coalesce onto the finished
	// sweep: same ID, zero new jobs, and the done event replays immediately.
	out.Reset()
	ok, err = runSpaceMode(cfg, &out)
	if err != nil || !ok {
		t.Fatalf("deduped sweep mode: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "deduped onto existing sweep") {
		t.Errorf("second run did not dedupe:\n%s", out.String())
	}

	// Mode exclusions are errors, not silent fallbacks.
	if _, err := runSpaceMode(loadConfig{sweepSpec: spec, batch: 4}, io.Discard); err == nil {
		t.Error("-sweep with -batch accepted")
	}
	if _, err := runSpaceMode(loadConfig{sweepSpec: spec, async: true}, io.Discard); err == nil {
		t.Error("-sweep with -async accepted")
	}
}
