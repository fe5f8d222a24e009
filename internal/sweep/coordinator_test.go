package sweep

import (
	"context"
	"sync"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
)

// testCache is a minimal stand-in for the serving tier's result cache.
type testCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newTestCache() *testCache { return &testCache{m: make(map[string][]byte)} }

func (c *testCache) Put(id string, body []byte) {
	c.mu.Lock()
	c.m[id] = append([]byte(nil), body...)
	c.mu.Unlock()
}

func (c *testCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	return b, ok
}

// harness wires a real jobs manager to a coordinator over a shared cache.
type harness struct {
	m     *jobs.Manager
	c     *Coordinator
	cache *testCache
}

func newHarness(t *testing.T, dir string) *harness {
	t.Helper()
	cache := newTestCache()
	m, err := jobs.Open(jobs.Options{Dir: dir, Runners: 2, SliceCycles: 5000,
		OnResult: func(id string, body []byte, _ *hwgc.CollectResponse) { cache.Put(id, body) }})
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewJobsRunner(m, cache.Get))
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	return &harness{m: m, c: c, cache: cache}
}

func (h *harness) close(t *testing.T) {
	t.Helper()
	h.c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func waitSweep(t *testing.T, c *Coordinator, id string, want string) Info {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		info, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if info.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("sweep %s state %s (want %s): %+v", id, info.State, want, info)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testSpace keeps the test sweeps small and fast: 4 points over Cores.
func testSpace() *hwgc.SweepSpace {
	return &hwgc.SweepSpace{
		Benches: []string{"jlisp"},
		Seeds:   []int64{3},
		Axes:    []hwgc.SweepAxis{{Field: "Cores", Values: []int64{1, 2, 4, 8}}},
	}
}

func TestSweepCoordinatorE2E(t *testing.T) {
	h := newHarness(t, t.TempDir())
	defer h.close(t)

	info, accepted, err := h.c.Submit(testSpace(), "")
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	if info.Points != 4 || len(info.ID) != 64 {
		t.Fatalf("submit info: %+v", info)
	}
	final := waitSweep(t, h.c, info.ID, StateDone)
	if final.Completed != 4 || final.Failed != 0 || final.Cancelled != 0 {
		t.Fatalf("final info: %+v", final)
	}
	if len(final.Frontier) != 4 || final.Frontier[0].Rank != 1 {
		t.Fatalf("frontier: %+v", final.Frontier)
	}
	// Event stream: planned first, then points/frontiers, terminal done
	// last, with strictly increasing sequence numbers.
	history, ch, stop, err := h.c.Subscribe(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if ch != nil {
		t.Fatal("live channel for a terminal sweep")
	}
	if history[0].Type != "planned" || !history[len(history)-1].terminal() {
		t.Fatalf("event bracket: first %q last %q", history[0].Type, history[len(history)-1].Type)
	}
	var points, frontiers int
	for i, ev := range history {
		if i > 0 && ev.Seq <= history[i-1].Seq {
			t.Fatalf("event %d: seq %d after %d", i, ev.Seq, history[i-1].Seq)
		}
		switch ev.Type {
		case "point":
			points++
		case "frontier":
			frontiers++
		}
	}
	if points != 4 || frontiers == 0 {
		t.Fatalf("events: %d point, %d frontier", points, frontiers)
	}
}

// Satellite: identical space resubmission returns the same sweep ID with
// zero new jobs; a superset space runs only the delta points.
func TestSweepIdempotentResubmission(t *testing.T) {
	h := newHarness(t, t.TempDir())
	defer h.close(t)

	info, accepted, err := h.c.Submit(testSpace(), "")
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	first := waitSweep(t, h.c, info.ID, StateDone)
	if first.JobsSubmitted != 4 {
		t.Fatalf("first run submitted %d jobs, want 4", first.JobsSubmitted)
	}

	again, accepted, err := h.c.Submit(testSpace(), "")
	if err != nil {
		t.Fatal(err)
	}
	if accepted || again.ID != info.ID {
		t.Fatalf("identical space: accepted=%v id=%s (want dedupe onto %s)", accepted, again.ID, info.ID)
	}
	if again.JobsSubmitted != first.JobsSubmitted {
		t.Fatalf("identical resubmission submitted new jobs: %d -> %d", first.JobsSubmitted, again.JobsSubmitted)
	}

	// Superset: two more core counts. Only the 2 new points may execute.
	super := testSpace()
	super.Axes[0].Values = []int64{1, 2, 4, 8, 16, 32}
	sinfo, accepted, err := h.c.Submit(super, "")
	if err != nil || !accepted {
		t.Fatalf("superset submit: accepted=%v err=%v", accepted, err)
	}
	if sinfo.ID == info.ID {
		t.Fatal("superset space got the same sweep ID")
	}
	sfinal := waitSweep(t, h.c, sinfo.ID, StateDone)
	if sfinal.Completed != 6 {
		t.Fatalf("superset completed %d points, want 6", sfinal.Completed)
	}
	if sfinal.Deduped != 4 {
		t.Fatalf("superset deduped %d points, want the 4 overlapping ones", sfinal.Deduped)
	}
	if sfinal.JobsSubmitted != 2 {
		t.Fatalf("superset submitted %d jobs, want only the 2 delta points", sfinal.JobsSubmitted)
	}
}

// A restart mid-sweep must resume from the WAL without re-running completed
// points.
func TestSweepRecoverAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir)
	info, accepted, err := h.c.Submit(testSpace(), "")
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	waitSweep(t, h.c, info.ID, StateDone)
	h.close(t)

	// Same dir, fresh process: the aux record replays the sweep; every
	// point dedupes against the recovered job table, so zero new jobs run.
	h2 := newHarness(t, dir)
	defer h2.close(t)
	final := waitSweep(t, h2.c, info.ID, StateDone)
	if final.Completed != 4 || final.Failed != 0 {
		t.Fatalf("recovered sweep: %+v", final)
	}
	if final.JobsSubmitted != 0 {
		t.Fatalf("recovery submitted %d new jobs, want 0", final.JobsSubmitted)
	}
	if final.Deduped != 4 {
		t.Fatalf("recovery deduped %d points, want 4", final.Deduped)
	}
}

// Cancelling a sweep cancels its outstanding points and the cancellation
// survives a restart.
func TestSweepCancel(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir)

	// One runner and a large backlog so most points are still queued when
	// the cancel lands.
	space := &hwgc.SweepSpace{
		Benches: []string{"jlisp", "search", "db", "javac"},
		Seeds:   []int64{1, 2, 3, 4},
		Axes:    []hwgc.SweepAxis{{Field: "Cores", Values: []int64{1, 2}}},
	}
	info, accepted, err := h.c.Submit(space, "")
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	if _, err := h.c.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, h.c, info.ID, StateCancelled)
	if final.Completed+final.Cancelled+final.Failed != final.Points {
		t.Fatalf("cancelled sweep accounting: %+v", final)
	}
	if final.Cancelled == 0 {
		t.Fatalf("no points cancelled: %+v", final)
	}
	if _, err := h.c.Cancel(info.ID); err != ErrTerminal {
		t.Fatalf("second cancel err = %v, want ErrTerminal", err)
	}
	h.close(t)

	h2 := newHarness(t, dir)
	defer h2.close(t)
	rec, err := h2.c.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCancelled {
		t.Fatalf("recovered cancelled sweep state %s", rec.State)
	}
}

func TestSweepCoordinatorErrors(t *testing.T) {
	h := newHarness(t, t.TempDir())
	defer h.close(t)
	if _, err := h.c.Get("nope"); err != ErrNotFound {
		t.Fatalf("Get err = %v", err)
	}
	if _, err := h.c.Cancel("nope"); err != ErrNotFound {
		t.Fatalf("Cancel err = %v", err)
	}
	if _, _, _, err := h.c.Subscribe("nope"); err != ErrNotFound {
		t.Fatalf("Subscribe err = %v", err)
	}
	if _, _, err := h.c.Submit(testSpace(), "no-such-class"); err == nil {
		t.Fatal("Submit accepted an unknown class")
	}
	if _, _, err := h.c.Submit(&hwgc.SweepSpace{}, ""); err == nil {
		t.Fatal("Submit accepted an invalid space")
	}
}

// blockingRunner is a Runner whose points never finish on their own: each
// RunPoint waits for its context, and CancelJob records the key.
type blockingRunner struct {
	mu        sync.Mutex
	cancelled []string
}

func (r *blockingRunner) Admit(_ string, _ []byte, class string) (string, error) { return class, nil }
func (r *blockingRunner) Cancelled(string) error                                 { return nil }
func (r *blockingRunner) Persisted() ([]Persisted, error)                        { return nil, nil }
func (r *blockingRunner) Inflight() int                                          { return 0 }

func (r *blockingRunner) RunPoint(ctx context.Context, _ string, _ int, _ hwgc.SweepPoint) Result {
	<-ctx.Done()
	return Result{Err: "must be dropped"}
}

func (r *blockingRunner) CancelJob(key string) {
	r.mu.Lock()
	r.cancelled = append(r.cancelled, key)
	r.mu.Unlock()
}

// Cancel settles every pending point at once and cancels the point jobs
// no other live sweep shares; results that arrive after the cancel or
// Close are dropped.
func TestSweepCancelSharedPoints(t *testing.T) {
	r := &blockingRunner{}
	c := New(r)
	victim, _, err := c.Submit(testSpace(), "")
	if err != nil {
		t.Fatal(err)
	}
	sharer := testSpace()
	sharer.Axes[0].Values = []int64{8}
	sinfo, _, err := c.Submit(sharer, "")
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Cancel(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled || info.Cancelled != 4 || info.Completed+info.Failed != 0 {
		t.Fatalf("cancel info = %+v", info)
	}
	if _, err := c.Cancel(victim.ID); err != ErrTerminal {
		t.Fatalf("second cancel err = %v, want ErrTerminal", err)
	}
	c.Close() // waits for the background job cancels

	points, err := testSpace().Points()
	if err != nil {
		t.Fatal(err)
	}
	sharedPoints, err := sharer.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, p := range points {
		if p.Key != sharedPoints[0].Key {
			want[p.Key] = true
		}
	}
	if len(want) != 3 || len(r.cancelled) != 3 {
		t.Fatalf("cancelled jobs %v, want the 3 unshared of %d points", r.cancelled, len(points))
	}
	for _, k := range r.cancelled {
		if !want[k] {
			t.Fatalf("cancelled job %s is shared or foreign", k)
		}
	}
	if got, _ := c.Get(sinfo.ID); got.State != StateRunning || got.Failed != 0 {
		t.Fatalf("sharing sweep after Close = %+v", got)
	}
}
