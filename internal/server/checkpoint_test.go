package server

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hwgc"
)

// ckptReq is the request used across the crash/resume tests; search at
// cores 4 runs long enough to cross several small checkpoint intervals.
const ckptReq = `{"Bench":"search","Config":{"Cores":4}}`

// uninterruptedBody computes the byte-exact response the uninterrupted
// serving path would produce for ckptReq.
func uninterruptedBody(t *testing.T) []byte {
	t.Helper()
	req := hwgc.CollectRequest{Bench: "search", Config: hwgc.Config{Cores: 4}}
	body, err := encodeCollect(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCheckpointPreemptResume is the crash/resume e2e: a server is killed
// (preempted via Shutdown, which is what gcserved's SIGTERM handler calls)
// mid-collection at a checkpoint boundary, a second server on the same
// checkpoint directory serves the same request, and the response must be
// byte-identical to an uninterrupted run.
func TestCheckpointPreemptResume(t *testing.T) {
	dir := t.TempDir()
	want := uninterruptedBody(t)

	// Server 1: preempt at the first checkpoint. The hook runs in the
	// worker goroutine after each save; it triggers Shutdown and waits for
	// the drain flag so the worker's next poll deterministically preempts.
	s1, err := New(Options{Workers: 1, CheckpointDir: dir, CheckpointCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	s1.checkpointHook = func(key string) {
		once.Do(func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = s1.Shutdown(ctx)
			}()
		})
		<-s1.draining
	}
	s1.Start()
	body, _, err := s1.execute(context.Background(), mustKey(t), "collect", func() ([]byte, error) {
		return s1.runCollect(mustReq(t))
	})
	if err == nil {
		t.Fatalf("preempted job returned a result: %s", body)
	}
	if code, msg := s1.executeStatus("collect", err); code != http.StatusServiceUnavailable || !strings.Contains(msg, "checkpointed") {
		t.Fatalf("preemption mapped to %d %q, want 503 + checkpointed", code, msg)
	}
	if s1.metrics.jobsPreempted.Load() == 0 || s1.metrics.checkpointsSaved.Load() == 0 {
		t.Fatal("preemption metrics not bumped")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one checkpoint on disk, got %v (err %v)", files, err)
	}

	// Server 2: same directory, fresh process. The same request must resume
	// from the checkpoint and produce the uninterrupted bytes.
	s2, ts := newTestServer(t, Options{Workers: 1, CheckpointDir: dir, CheckpointCycles: 1 << 40})
	resp, got := post(t, ts, "/v1/collect", ckptReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed request: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed response differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if s2.metrics.checkpointsResumed.Load() == 0 {
		t.Fatal("server 2 did not resume from the checkpoint")
	}
	// The finished job must remove its checkpoint.
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 0 {
		t.Fatalf("checkpoint not removed after completion: %v", files)
	}
}

// TestCheckpointStartupRecovery checks that a restarted server finishes
// orphaned checkpoints in the background and serves the result from cache.
func TestCheckpointStartupRecovery(t *testing.T) {
	dir := t.TempDir()
	want := uninterruptedBody(t)
	key := mustKey(t)

	// Orphan a checkpoint: run a few slices by hand and stop.
	seedCheckpoint(t, dir, 2000)

	s, _ := newTestServer(t, Options{Workers: 1, CheckpointDir: dir, CheckpointCycles: 1 << 40})
	if s.metrics.recoveriesEnqueued.Load() != 1 {
		t.Fatalf("recoveries enqueued = %d, want 1", s.metrics.recoveriesEnqueued.Load())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if body, ok := s.cache.Get(key); ok {
			if !bytes.Equal(body, want) {
				t.Fatal("recovered response differs from uninterrupted run")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointCorruptFileFallsBack checks that a corrupt checkpoint is
// not fatal: the job restarts from scratch and still answers correctly.
func TestCheckpointCorruptFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	want := uninterruptedBody(t)
	seedCheckpoint(t, dir, 2000)
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("seed produced %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-100] ^= 0xff // snapshot CRC breaks
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{Workers: 1, CheckpointDir: dir, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	body, err := s.runCheckpointed(mustReq(t))
	if err != nil {
		t.Fatalf("corrupt checkpoint wedged the job: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("fallback response differs from uninterrupted run")
	}
	if s.metrics.checkpointsResumed.Load() != 0 {
		t.Fatal("corrupt checkpoint counted as resumed")
	}
}

// TestCheckpointStartupSweep is the checkpoint-GC satellite: files that can
// never be resumed — crash-orphaned temp files and unreadable checkpoints —
// are deleted by the startup scan and counted as reclaimed, while healthy
// checkpoints survive and recover as before.
func TestCheckpointStartupSweep(t *testing.T) {
	dir := t.TempDir()
	seedCheckpoint(t, dir, 2000) // one healthy checkpoint
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-12345"), []byte("torn temp"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := newTestServer(t, Options{Workers: 1, CheckpointDir: dir, CheckpointCycles: 1 << 40})
	if got := s.metrics.checkpointsReclaimed.Load(); got != 2 {
		t.Fatalf("reclaimed = %d, want 2 (temp + unreadable)", got)
	}
	if s.metrics.recoveriesEnqueued.Load() != 1 {
		t.Fatalf("healthy checkpoint not recovered: %d", s.metrics.recoveriesEnqueued.Load())
	}
	for _, name := range []string{".ckpt-12345", "garbage.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s not deleted (err %v)", name, err)
		}
	}
	// The metric is on /metrics.
	var buf bytes.Buffer
	if err := s.metrics.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gcserved_checkpoint_files_reclaimed_total 2") {
		t.Error("reclaim metric missing from exposition")
	}
}

// TestCheckpointStoreRoundTrip unit-tests the on-disk framing.
func TestCheckpointStoreRoundTrip(t *testing.T) {
	st := &checkpointStore{dir: t.TempDir()}
	reqJSON := []byte(`{"Bench":"jlisp"}`)
	snap := []byte("not-a-real-snapshot")
	if err := st.save("k1", reqJSON, snap); err != nil {
		t.Fatal(err)
	}
	req, gotSnap, ok, err := st.load("k1")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if req.Bench != "jlisp" || !bytes.Equal(gotSnap, snap) {
		t.Fatalf("round trip: %+v %q", req, gotSnap)
	}
	if _, _, ok, err := st.load("absent"); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	keys, err := st.keys()
	if err != nil || len(keys) != 1 || keys[0] != "k1" {
		t.Fatalf("keys: %v err=%v", keys, err)
	}
	if err := st.remove("k1"); err != nil {
		t.Fatal(err)
	}
	if err := st.remove("k1"); err != nil {
		t.Fatalf("second remove: %v", err)
	}
	// Truncated header is an error, not a silent miss.
	if err := os.WriteFile(st.path("bad"), []byte("HWGC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.load("bad"); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	}
}

// mustReq returns the canonicalized test request.
func mustReq(t *testing.T) hwgc.CollectRequest {
	t.Helper()
	req := hwgc.CollectRequest{Bench: "search", Config: hwgc.Config{Cores: 4}}
	if err := req.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return req
}

func mustKey(t *testing.T) string {
	t.Helper()
	req := mustReq(t)
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// seedCheckpoint runs the test request for the given number of cycles and
// leaves its checkpoint in dir, simulating a crashed process.
func seedCheckpoint(t *testing.T, dir string, cycles int64) {
	t.Helper()
	req := mustReq(t)
	rc, err := hwgc.StartCollectRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := rc.StepCycles(cycles); err != nil || done {
		t.Fatalf("seed run: done=%v err=%v", done, err)
	}
	snap, err := rc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, err := req.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	st := &checkpointStore{dir: dir}
	if err := st.save(mustKey(t), reqJSON, snap); err != nil {
		t.Fatal(err)
	}
}
