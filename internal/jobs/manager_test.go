package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwgc"
)

func collectCanonical(t *testing.T, cores int, seed int64) []byte {
	t.Helper()
	req := hwgc.CollectRequest{Bench: "search", Seed: seed, Config: hwgc.Config{Cores: cores}}
	b, err := req.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// collectBody returns the byte-exact response of an uninterrupted
// synchronous run of the same request.
func collectBody(t *testing.T, cores int, seed int64) []byte {
	t.Helper()
	resp, err := hwgc.NewCollectResponse(hwgc.CollectRequest{Bench: "search", Seed: seed, Config: hwgc.Config{Cores: cores}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sweepCanonical(t *testing.T, cores []int) []byte {
	t.Helper()
	req := hwgc.SweepRequest{Bench: "search", Cores: cores}
	b, err := req.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sweepBody(t *testing.T, cores []int) []byte {
	t.Helper()
	resp, err := hwgc.NewSweepResponse(hwgc.SweepRequest{Bench: "search", Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func drainManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitState polls until the job reaches want, failing fast on an unexpected
// terminal state.
func waitState(t *testing.T, m *Manager, id string, want State) Info {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if info.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, info.State, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for job %s to reach %s (state %s)", id, want, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobsCollectLifecycle(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Runners: 1, CheckpointCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	canonical := collectCanonical(t, 4, 0)
	var gotResult atomic.Bool
	m.opts.OnResult = func(id string, body []byte) { gotResult.Store(true) }

	info, accepted, err := m.Submit(KindCollect, "", canonical)
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	if info.ID != hwgc.KeyBytes(canonical) || info.Class != "interactive" || info.Points != 1 {
		t.Fatalf("submit info = %+v", info)
	}
	done := waitState(t, m, info.ID, StateDone)
	if done.Submitted.IsZero() || done.Started.IsZero() || done.Finished.IsZero() {
		t.Fatalf("missing timestamps: %+v", done)
	}
	body, _, err := m.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := collectBody(t, 4, 0); !bytes.Equal(body, want) {
		t.Fatalf("job result differs from uninterrupted run:\n%s\nvs\n%s", body, want)
	}
	if !gotResult.Load() {
		t.Fatal("OnResult not called")
	}
	// Resubmission dedupes onto the finished job.
	again, accepted, err := m.Submit(KindCollect, "batch", canonical)
	if err != nil || accepted {
		t.Fatalf("resubmit: accepted=%v err=%v", accepted, err)
	}
	if again.State != StateDone {
		t.Fatalf("deduped info state = %s", again.State)
	}
	if m.Metrics().preemptions.Load() != 0 {
		t.Fatal("lone job was preempted")
	}
	// A completed job leaves no checkpoint file behind.
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+ckptSuffix)); len(files) != 0 {
		t.Fatalf("leftover checkpoints: %v", files)
	}
	drainManager(t, m)
}

func TestJobsSweepByteIdentical(t *testing.T) {
	cores := []int{2, 4}
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	info, _, err := m.Submit(KindSweep, "batch", sweepCanonical(t, cores))
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 2 {
		t.Fatalf("sweep points = %d", info.Points)
	}
	waitState(t, m, info.ID, StateDone)
	body, _, err := m.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepBody(t, cores); !bytes.Equal(body, want) {
		t.Fatalf("sweep job result differs from synchronous sweep")
	}
}

// TestJobsPreemption is the scheduling acceptance test: while a batch job
// runs on the only runner, a higher-priority interactive job arrives; the
// batch job must yield at its next checkpoint boundary, the interactive job
// must finish first, and the batch job's final result must be byte-identical
// to an unpreempted run.
func TestJobsPreemption(t *testing.T) {
	// The coarse slice keeps snapshot count low so the test stays fast
	// under -race; preemption needs only one checkpoint boundary.
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 2500})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)

	longCanonical := collectCanonical(t, 4, 0)  // batch
	shortCanonical := collectCanonical(t, 4, 7) // interactive, distinct seed
	var once sync.Once
	m.opts.CheckpointHook = func(id string) {
		// At the long job's first checkpoint, the interactive job arrives.
		once.Do(func() {
			if _, _, err := m.Submit(KindCollect, "interactive", shortCanonical); err != nil {
				t.Errorf("interactive submit: %v", err)
			}
		})
	}
	longInfo, _, err := m.Submit(KindCollect, "batch", longCanonical)
	if err != nil {
		t.Fatal(err)
	}
	longDone := waitState(t, m, longInfo.ID, StateDone)
	shortDone := waitState(t, m, hwgc.KeyBytes(shortCanonical), StateDone)

	if longDone.Preemptions < 1 {
		t.Fatalf("batch job preemptions = %d, want >= 1", longDone.Preemptions)
	}
	if m.Metrics().preemptions.Load() < 1 {
		t.Fatal("preemption metric not bumped")
	}
	if !shortDone.Finished.Before(longDone.Finished) {
		t.Fatalf("interactive job (%v) did not finish before the preempted batch job (%v)",
			shortDone.Finished, longDone.Finished)
	}
	body, _, err := m.Result(longInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := collectBody(t, 4, 0); !bytes.Equal(body, want) {
		t.Fatal("preempted job's result differs from unpreempted run")
	}
}

// TestJobsCrashRestart is the durability acceptance test: the first manager
// is wedged (its runner blocks inside the checkpoint hook, the in-process
// equivalent of SIGKILL — no clean transitions are written), a second
// manager opens the same directory, replays the WAL, adopts the checkpoint
// and finishes the job with a byte-identical result and no duplicate
// execution.
func TestJobsCrashRestart(t *testing.T) {
	dir := t.TempDir()
	canonical := sweepCanonical(t, []int{8, 1})
	id := hwgc.KeyBytes(canonical)

	checkpointed := make(chan struct{})
	release := make(chan struct{})
	var wedge, wedged atomic.Bool
	m1, err := Open(Options{Dir: dir, Runners: 1, CheckpointCycles: 500, CheckpointHook: func(string) {
		if wedge.Load() && wedged.CompareAndSwap(false, true) {
			close(checkpointed)
			<-release
		} else if wedged.Load() {
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		drainManager(t, m1)
	}()
	if _, _, err := m1.Submit(KindSweep, "batch", canonical); err != nil {
		t.Fatal(err)
	}
	// Let point 0 (cores 8) finish so the WAL holds a recPoint record, then
	// wedge at the next checkpoint inside point 1.
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := m1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Point >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("point 0 never completed (state %s)", info.State)
		}
		time.Sleep(time.Millisecond)
	}
	wedge.Store(true)
	select {
	case <-checkpointed:
	case <-time.After(60 * time.Second):
		t.Fatal("never checkpointed inside point 1")
	}

	// "Process 2": same directory. The WAL must replay, the orphaned
	// checkpoint must be adopted, and the job must resume — not restart.
	m2, err := Open(Options{Dir: dir, Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Metrics().walReplayedRecords.Load() == 0 {
		t.Fatal("second manager replayed no WAL records")
	}
	info, err := m2.Get(id)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if info.Point != 1 {
		t.Fatalf("completed points lost across restart: %d", info.Point)
	}
	waitState(t, m2, id, StateDone)
	if m2.Metrics().resumes.Load() == 0 {
		t.Fatal("job restarted from scratch instead of resuming")
	}
	body, _, err := m2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepBody(t, []int{8, 1}); !bytes.Equal(body, want) {
		t.Fatal("post-crash result differs from uninterrupted run")
	}
	// No duplicate execution: resubmitting returns the finished job.
	if _, accepted, err := m2.Submit(KindSweep, "batch", canonical); err != nil || accepted {
		t.Fatalf("resubmit after recovery: accepted=%v err=%v", accepted, err)
	}
	drainManager(t, m2)

	// Third open: the completed job must survive (served from the WAL).
	m3, err := Open(Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	body3, _, err := m3.Result(id)
	if err != nil || !bytes.Equal(body3, body) {
		t.Fatalf("result not durable across a clean restart: err=%v", err)
	}
	drainManager(t, m3)
}

// TestJobsCancelQueued covers client abandonment of a queued job: the job
// is cancelled immediately and the WAL stays replayable.
func TestJobsCancelQueued(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	var hold atomic.Bool
	hold.Store(true)
	m, err := Open(Options{Dir: dir, Runners: 1, CheckpointCycles: 500, CheckpointHook: func(string) {
		if hold.Load() {
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the only runner, then queue a second job behind it.
	if _, _, err := m.Submit(KindCollect, "batch", collectCanonical(t, 4, 0)); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, hwgc.KeyBytes(collectCanonical(t, 4, 0)), StateRunning)
	queued := collectCanonical(t, 4, 9)
	qid := hwgc.KeyBytes(queued)
	if _, _, err := m.Submit(KindCollect, "batch", queued); err != nil {
		t.Fatal(err)
	}
	info, err := m.Cancel(qid)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s", info.State)
	}
	if m.Depths()["batch"] != 0 {
		t.Fatalf("cancelled job still queued: %v", m.Depths())
	}
	hold.Store(false)
	close(release)
	waitState(t, m, hwgc.KeyBytes(collectCanonical(t, 4, 0)), StateDone)
	drainManager(t, m)

	// The WAL must replay: one done job, one cancelled job.
	m2, err := Open(Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatalf("WAL not replayable after cancel: %v", err)
	}
	defer drainManager(t, m2)
	if info, err := m2.Get(qid); err != nil || info.State != StateCancelled {
		t.Fatalf("cancelled state not durable: %+v err=%v", info, err)
	}
	// Revival: resubmitting a cancelled job runs it.
	if _, accepted, err := m2.Submit(KindCollect, "batch", queued); err != nil || !accepted {
		t.Fatalf("revival: accepted=%v err=%v", accepted, err)
	}
	waitState(t, m2, qid, StateDone)
	body, _, err := m2.Result(qid)
	if err != nil || !bytes.Equal(body, collectBody(t, 4, 9)) {
		t.Fatalf("revived job result wrong: err=%v", err)
	}
}

// TestJobsCancelMidCheckpoint covers abandonment of a running job: the
// cancel lands while the job sits at a checkpoint boundary, takes effect
// there, removes the checkpoint file and leaves the WAL replayable.
func TestJobsCancelMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	atBoundary := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m, err := Open(Options{Dir: dir, Runners: 1, CheckpointCycles: 500, CheckpointHook: func(string) {
		once.Do(func() {
			close(atBoundary)
			<-release
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	canonical := collectCanonical(t, 4, 0)
	id := hwgc.KeyBytes(canonical)
	if _, _, err := m.Submit(KindCollect, "batch", canonical); err != nil {
		t.Fatal(err)
	}
	<-atBoundary
	info, err := m.Cancel(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateRunning {
		t.Fatalf("mid-run cancel state = %s, want still running until the boundary", info.State)
	}
	close(release)
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, _ := m.Get(id)
		if info.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never cancelled (state %s)", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+ckptSuffix)); len(files) != 0 {
		t.Fatalf("cancelled job left checkpoints: %v", files)
	}
	drainManager(t, m)
	m2, err := Open(Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatalf("WAL not replayable after mid-checkpoint cancel: %v", err)
	}
	defer drainManager(t, m2)
	if info, err := m2.Get(id); err != nil || info.State != StateCancelled {
		t.Fatalf("cancellation not durable: %+v err=%v", info, err)
	}
}

// TestJobsDeleteRacesCompletion covers DELETE arriving after the job
// finished: the cancel is refused, the result survives, the WAL replays.
func TestJobsDeleteRacesCompletion(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	canonical := collectCanonical(t, 4, 0)
	id := hwgc.KeyBytes(canonical)
	if _, _, err := m.Submit(KindCollect, "", canonical); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, id, StateDone)
	info, err := m.Cancel(id)
	if err != ErrTerminal {
		t.Fatalf("cancel of done job: err=%v, want ErrTerminal", err)
	}
	if info.State != StateDone {
		t.Fatalf("cancel of done job flipped state to %s", info.State)
	}
	if _, _, err := m.Result(id); err != nil {
		t.Fatalf("result lost after rejected cancel: %v", err)
	}
	drainManager(t, m)
	m2, err := Open(Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatalf("WAL not replayable: %v", err)
	}
	defer drainManager(t, m2)
	if body, _, err := m2.Result(id); err != nil || len(body) == 0 {
		t.Fatalf("result not durable: %v", err)
	}
}

// TestJobsCheckpointSweep checks the startup garbage collection of the
// checkpoint directory: unreadable files and files for unknown jobs are
// reclaimed, with the metric counting them.
func TestJobsCheckpointSweep(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef"+ckptSuffix), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(filepath.Join(dir, strings.Repeat("ab", 32)+ckptSuffix), checkpoint{Point: 0, Snap: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-orphan"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	if got := m.Metrics().ckptReclaims.Load(); got != 3 {
		t.Fatalf("reclaimed = %d, want 3", got)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+ckptSuffix))
	if len(files) != 0 {
		t.Fatalf("unswept checkpoints: %v", files)
	}
}

func TestJobsEventsStream(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	canonical := collectCanonical(t, 4, 0)
	id := hwgc.KeyBytes(canonical)
	if _, _, err := m.Submit(KindCollect, "", canonical); err != nil {
		t.Fatal(err)
	}
	history, ch, stop, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	states := map[State]bool{}
	for _, ev := range history {
		states[ev.State] = true
	}
	if ch != nil {
		for ev := range ch {
			states[ev.State] = true
		}
	}
	if !states[StateDone] {
		t.Fatalf("event stream never reported done: %v", states)
	}
	// A subscription after completion replays history ending in the
	// terminal event, with a nil live channel.
	history2, ch2, stop2, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if ch2 != nil {
		t.Fatal("live channel returned for a terminal job")
	}
	if len(history2) == 0 || history2[len(history2)-1].State != StateDone {
		t.Fatalf("terminal replay = %+v", history2)
	}
}

func TestJobsMetricsOutput(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	canonical := collectCanonical(t, 4, 0)
	if _, _, err := m.Submit(KindCollect, "", canonical); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, hwgc.KeyBytes(canonical), StateDone)
	var buf bytes.Buffer
	if err := m.Metrics().Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gcjobs_queue_depth{class="interactive"} 0`,
		`gcjobs_queue_depth{class="batch"} 0`,
		"gcjobs_submitted_total 1",
		"gcjobs_completed_total 1",
		"gcjobs_preemptions_total 0",
		"gcjobs_resumes_total 0",
		"gcjobs_wal_replays_total 1",
		"gcjobs_wal_fsync_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
