package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwgc"
)

// collectPoint returns the content key and canonical bytes of the search
// collect on cores cores with seed seed, as a Collect caller passes them.
func collectPoint(t *testing.T, cores int, seed int64) (string, []byte) {
	t.Helper()
	canonical := collectCanonical(t, cores, seed)
	return hwgc.KeyBytes(canonical), canonical
}

// gatedRun is an Options.Run that records every request it is called with
// and blocks until gate is closed, then answers with the request's seed.
type gatedRun struct {
	gate chan struct{}
	mu   sync.Mutex
	ran  []int64 // seeds, in run order
}

func newGatedRun() *gatedRun { return &gatedRun{gate: make(chan struct{})} }

func (g *gatedRun) run(req hwgc.CollectRequest) ([]byte, error) {
	g.mu.Lock()
	g.ran = append(g.ran, req.Seed)
	g.mu.Unlock()
	<-g.gate
	return []byte(fmt.Sprintf(`{"Seed":%d}`, req.Seed)), nil
}

func (g *gatedRun) seeds() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int64(nil), g.ran...)
}

// waitPool polls the runner pool until ok holds.
func waitPool(t *testing.T, m *Manager, what string, ok func(PoolStats) bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !ok(m.Pool()); {
		if time.Now().After(deadline) {
			t.Fatalf("pool never had %s: %+v", what, m.Pool())
		}
		time.Sleep(time.Millisecond)
	}
}

// collectAsync runs Collect on its own goroutine; the result arrives on the
// returned channel.
func collectAsync(ctx context.Context, m *Manager, key string, canonical []byte) <-chan error {
	out := make(chan error, 1)
	go func() {
		_, err := m.Collect(ctx, key, canonical)
		out <- err
	}()
	return out
}

// TestJobsMemoryCollect runs sync collects on a manager with no Dir: the
// body is byte-identical to hwgc.NewCollectResponse, no file is created
// (the working directory stays empty), and every terminal job has left the
// table once its waiter has the body.
func TestJobsMemoryCollect(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var results atomic.Int64
	m, err := Open(Options{Runners: 2, SliceCycles: 2000,
		OnResult: func(string, []byte, *hwgc.CollectResponse) { results.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for seed := int64(1); seed <= n; seed++ {
		key, canonical := collectPoint(t, 4, seed)
		body, err := m.Collect(context.Background(), key, canonical)
		if err != nil {
			t.Fatal(err)
		}
		if want := collectBody(t, 4, seed); !bytes.Equal(body, want) {
			t.Fatalf("seed %d: memory-mode body differs from NewCollectResponse", seed)
		}
	}
	if got := m.List(false); len(got) != 0 {
		t.Fatalf("job table holds %d jobs after %d sync collects, want 0: %+v", len(got), n, got)
	}
	if p := m.Pool(); p.Started != n || p.Done != n || p.Running != 0 || p.SyncQueued != 0 {
		t.Fatalf("pool after %d collects: %+v", n, p)
	}
	if results.Load() != n {
		t.Fatalf("OnResult called %d times, want %d", results.Load(), n)
	}
	drainManager(t, m)
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("memory mode created %d files, first %s", len(entries), filepath.Join(tmp, entries[0].Name()))
	}
}

// TestJobsMemoryDedupe: two concurrent sync misses for one key run one
// simulation and both get its body.
func TestJobsMemoryDedupe(t *testing.T) {
	g := newGatedRun()
	m, err := Open(Options{Runners: 2, Run: g.run})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	key, canonical := collectPoint(t, 4, 3)
	bodies := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if bodies[i], err = m.Collect(context.Background(), key, canonical); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitPool(t, m, "the job running", func(p PoolStats) bool { return p.Running == 1 })
	for m.Metrics().deduped.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	if !bytes.Equal(bodies[0], bodies[1]) || len(bodies[0]) == 0 {
		t.Fatalf("deduped waiters got %q and %q", bodies[0], bodies[1])
	}
	if ran := g.seeds(); len(ran) != 1 {
		t.Fatalf("two sync misses for one key ran %d simulations, want 1", len(ran))
	}
	if got := m.Metrics().submitted.Load(); got != 1 {
		t.Fatalf("submitted = %d, want 1", got)
	}
}

// TestJobsMemoryDrainCompletesQueued: Drain without a Dir refuses new
// collects but runs every admitted job, queued ones included, to
// completion, and each waiter gets its body.
func TestJobsMemoryDrainCompletesQueued(t *testing.T) {
	g := newGatedRun()
	m, err := Open(Options{Runners: 1, Run: g.run})
	if err != nil {
		t.Fatal(err)
	}
	var done []<-chan error
	for seed := int64(1); seed <= 3; seed++ {
		key, canonical := collectPoint(t, 4, seed)
		done = append(done, collectAsync(context.Background(), m, key, canonical))
		if seed == 1 {
			waitPool(t, m, "the first job running", func(p PoolStats) bool { return p.Running == 1 })
		}
	}
	waitPool(t, m, "two queued jobs", func(p PoolStats) bool { return p.SyncQueued == 2 })
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	for !m.drainingNow() {
		time.Sleep(time.Millisecond)
	}
	key, canonical := collectPoint(t, 4, 9)
	if _, err := m.Collect(context.Background(), key, canonical); !errors.Is(err, ErrDraining) {
		t.Fatalf("collect during drain: %v, want ErrDraining", err)
	}
	close(g.gate)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("admitted collect %d: %v", i+1, err)
		}
	}
	if p := m.Pool(); p.Done != 3 || p.Skipped != 0 {
		t.Fatalf("pool after drain: %+v, want 3 done, none skipped", p)
	}
}

// TestJobsMemoryDrainFinishesPreempted: a job flagged to yield before a
// memory-mode Drain began still yields at its next slice boundary, and the
// draining manager runs its parked collection to completion after the job
// it yielded to, instead of losing it.
func TestJobsMemoryDrainFinishesPreempted(t *testing.T) {
	asyncKey, asyncReq := collectPoint(t, 4, 1)
	syncKey, syncReq := collectPoint(t, 4, 2)
	h := newHoldSlices(asyncKey)
	m, err := Open(Options{Runners: 1, SliceCycles: 2000, SliceHook: h.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer h.releaseAll()
	if _, _, err := m.Submit("batch", asyncReq); err != nil {
		t.Fatal(err)
	}
	h.wait(asyncKey)
	syncDone := collectAsync(context.Background(), m, syncKey, syncReq)
	waitPool(t, m, "a queued sync job", func(p PoolStats) bool { return p.SyncQueued == 1 })
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	for !m.drainingNow() {
		time.Sleep(time.Millisecond)
	}
	h.release(asyncKey)
	if err := <-syncDone; err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if got := m.Metrics().preemptions.Load(); got != 1 {
		t.Fatalf("preemptions = %d, want 1", got)
	}
	if got := m.Metrics().completed.Load(); got != 2 {
		t.Fatalf("completed = %d after the drain, want 2: the preempted job was lost", got)
	}
}

// TestJobsWithdrawnCountsSkipped: when the only waiter of a queued job
// gives up, the job is withdrawn and counted as skipped, never run; in
// memory mode it leaves the table, with a Dir it ends cancelled without
// counting as a DELETE.
func TestJobsWithdrawnCountsSkipped(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		g := newGatedRun()
		m, err := Open(Options{Dir: dir, Runners: 1, Run: g.run})
		if err != nil {
			t.Fatal(err)
		}
		busyKey, busy := collectPoint(t, 4, 1)
		busyDone := collectAsync(context.Background(), m, busyKey, busy)
		waitPool(t, m, "a running job", func(p PoolStats) bool { return p.Running == 1 })
		ctx, cancel := context.WithCancel(context.Background())
		key, canonical := collectPoint(t, 4, 2)
		gaveUp := collectAsync(ctx, m, key, canonical)
		waitPool(t, m, "a queued job", func(p PoolStats) bool { return p.SyncQueued == 1 })
		cancel()
		if err := <-gaveUp; !errors.Is(err, context.Canceled) {
			t.Fatalf("dir %q: abandoned collect returned %v", dir, err)
		}
		if p := m.Pool(); p.Skipped != 1 || p.SyncQueued != 0 {
			t.Fatalf("dir %q: pool after withdrawal: %+v, want 1 skipped, none queued", dir, p)
		}
		info, err := m.Get(key)
		switch {
		case dir == "" && !errors.Is(err, ErrNotFound):
			t.Fatalf("memory mode kept the withdrawn job: %+v %v", info, err)
		case dir != "" && (err != nil || info.State != StateCancelled || info.Error != errWithdrawn):
			t.Fatalf("withdrawn job is %+v (err %v), want cancelled %q", info, err, errWithdrawn)
		}
		if got := m.Metrics().cancelled.Load(); got != 0 {
			t.Fatalf("dir %q: a withdrawal counted as %d DELETE cancellations", dir, got)
		}
		close(g.gate)
		if err := <-busyDone; err != nil {
			t.Fatal(err)
		}
		drainManager(t, m)
		if ran := g.seeds(); len(ran) != 1 || ran[0] != 1 {
			t.Fatalf("dir %q: ran seeds %v, want only the busy job", dir, ran)
		}
	}
}

// TestJobsSyncQueueBound: Options.QueueDepth bounds the queued jobs with a
// Collect waiter (a new one beyond it is ErrQueueFull, joining an already
// awaited one is not), async submissions are not bounded, and a job with a
// waiter runs ahead of the async jobs queued before it in its class.
func TestJobsSyncQueueBound(t *testing.T) {
	g := newGatedRun()
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, QueueDepth: 1, Run: g.run})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	if _, _, err := m.Submit("", collectCanonical(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	waitPool(t, m, "a running job", func(p PoolStats) bool { return p.Running == 1 })
	for seed := int64(2); seed <= 3; seed++ {
		if _, _, err := m.Submit("", collectCanonical(t, 4, seed)); err != nil {
			t.Fatalf("async submit %d: %v", seed, err)
		}
	}
	key, canonical := collectPoint(t, 4, 4)
	first := collectAsync(context.Background(), m, key, canonical)
	waitPool(t, m, "one awaited queued job", func(p PoolStats) bool { return p.SyncQueued == 1 })
	second := collectAsync(context.Background(), m, key, canonical)
	fullKey, full := collectPoint(t, 4, 5)
	if _, err := m.Collect(context.Background(), fullKey, full); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("collect beyond QueueDepth: %v, want ErrQueueFull", err)
	}
	// An async job only waited on by a Collect needs a slot too.
	asyncKey, async := collectPoint(t, 4, 2)
	if _, err := m.Collect(context.Background(), asyncKey, async); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("collect onto a queued async job beyond QueueDepth: %v, want ErrQueueFull", err)
	}
	close(g.gate)
	for _, ch := range []<-chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	for _, seed := range []int64{2, 3} {
		waitState(t, m, hwgc.KeyBytes(collectCanonical(t, 4, seed)), StateDone)
	}
	if got, want := fmt.Sprint(g.seeds()), "[1 4 2 3]"; got != want {
		t.Fatalf("run order %s, want %s: the awaited job runs ahead of queued async jobs", got, want)
	}
}

// drainingNow reports whether Drain has begun.
func (m *Manager) drainingNow() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

// TestJobsDrainDispatchesNoQueuedJob: with a Dir, once Drain has begun no
// queued job is dispatched. The runner's job is held at its first slice
// boundary until Drain begins; it then stops, queued, and the three jobs
// queued behind it stay queued with no fresh start.
func TestJobsDrainDispatchesNoQueuedJob(t *testing.T) {
	held := make(chan struct{})
	hold := make(chan struct{})
	var once sync.Once
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, SliceCycles: 2000, SliceHook: func(string) {
		once.Do(func() {
			close(held)
			<-hold
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(0); seed < 4; seed++ {
		info, _, err := m.Submit("", collectCanonical(t, 4, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		if seed == 0 {
			<-held
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	for !m.drainingNow() {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if info, _ := m.Get(ids[0]); info.State != StateQueued || info.Preemptions != 1 {
		t.Fatalf("held job is %s with %d preemptions, want queued after one", info.State, info.Preemptions)
	}
	if m.parked != 0 {
		t.Fatalf("%d collections parked by a durable drain, want 0: the jobs re-run from the WAL", m.parked)
	}
	for _, id := range ids[1:] {
		if info, _ := m.Get(id); info.State != StateQueued || info.Cycle != 0 {
			t.Fatalf("queued job %s is %s at cycle %d after drain, want queued at 0", id[:8], info.State, info.Cycle)
		}
	}
	if got := m.Metrics().freshStarts.Load(); got != 1 {
		t.Fatalf("fresh starts = %d, want 1: queued jobs were dispatched during drain", got)
	}
}

// holdSlices is an Options.SliceHook that holds the first slice boundary
// of each job it was built for until that job is released.
type holdSlices map[string]*heldJob

type heldJob struct {
	held, release    chan struct{}
	reached, stopped sync.Once
}

func newHoldSlices(ids ...string) holdSlices {
	h := holdSlices{}
	for _, id := range ids {
		h[id] = &heldJob{held: make(chan struct{}), release: make(chan struct{})}
	}
	return h
}

func (h holdSlices) hook(id string) {
	if j, ok := h[id]; ok {
		j.reached.Do(func() { close(j.held); <-j.release })
	}
}

// wait blocks until id is held in the hook.
func (h holdSlices) wait(id string) { <-h[id].held }

// release lets id's held slice boundary, and every later one, return.
func (h holdSlices) release(id string) { h[id].stopped.Do(func() { close(h[id].release) }) }

// releaseAll releases every job, so a failed test does not hang its drain.
func (h holdSlices) releaseAll() {
	for id := range h {
		h.release(id)
	}
}

// TestJobsDrainKeepsQueuedCollect: with a Dir, a sync collect that Drain
// stops mid-run or leaves queued is not withdrawn when its waiter returns:
// it stays in the WAL with no skip counted, and the next Open on the same
// Dir re-runs it to the byte-identical result.
func TestJobsDrainKeepsQueuedCollect(t *testing.T) {
	dir := t.TempDir()
	runKey, runReq := collectPoint(t, 4, 1)
	queuedKey, queuedReq := collectPoint(t, 4, 2)
	h := newHoldSlices(runKey)
	m, err := Open(Options{Dir: dir, Runners: 1, SliceCycles: 2000, SliceHook: h.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer h.releaseAll()
	running := collectAsync(context.Background(), m, runKey, runReq)
	h.wait(runKey)
	queued := collectAsync(context.Background(), m, queuedKey, queuedReq)
	waitPool(t, m, "a queued sync job", func(p PoolStats) bool { return p.SyncQueued == 1 })
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	for !m.drainingNow() {
		time.Sleep(time.Millisecond)
	}
	h.release(runKey)
	for _, ch := range []<-chan error{running, queued} {
		if err := <-ch; !errors.Is(err, ErrPreempted) {
			t.Fatalf("collect during drain returned %v, want ErrPreempted", err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if p := m.Pool(); p.Skipped != 0 {
		t.Fatalf("drain withdrew a sync job: %+v", p)
	}
	for _, id := range []string{runKey, queuedKey} {
		if info, _ := m.Get(id); info.State != StateQueued {
			t.Fatalf("job %s is %s after drain, want queued", id[:8], info.State)
		}
	}

	m2, err := Open(Options{Dir: dir, Runners: 1, SliceCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m2)
	for seed, id := range map[int64]string{1: runKey, 2: queuedKey} {
		waitState(t, m2, id, StateDone)
		body, _, err := m2.Result(id)
		if err != nil || !bytes.Equal(body, collectBody(t, 4, seed)) {
			t.Fatalf("job %s after restart: err %v, body not byte-identical to an uninterrupted run", id[:8], err)
		}
	}
	if got := m2.Metrics().freshStarts.Load(); got != 2 {
		t.Fatalf("fresh starts after restart = %d, want 2: both jobs re-run from their requests", got)
	}
}

// TestJobsCheckpointedCollectNotWithdrawn: a sync collect preempted by a
// higher class keeps its parked collection when its waiter gives up while
// it is queued: it is re-queued, not withdrawn, and runs to done.
func TestJobsCheckpointedCollectNotWithdrawn(t *testing.T) {
	classes, err := ParseClasses("batch:1,interactive:8")
	if err != nil {
		t.Fatal(err)
	}
	syncKey, syncReq := collectPoint(t, 4, 1)
	highKey, highReq := collectPoint(t, 4, 2)
	h := newHoldSlices(syncKey, highKey)
	m, err := Open(Options{Dir: t.TempDir(), Classes: classes, Runners: 1, SliceCycles: 2000, SliceHook: h.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m)
	defer h.releaseAll()
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := collectAsync(ctx, m, syncKey, syncReq)
	h.wait(syncKey)
	if _, _, err := m.Submit("interactive", highReq); err != nil {
		t.Fatal(err)
	}
	h.release(syncKey)
	h.wait(highKey) // the sync job yielded to it
	if info, _ := m.Get(syncKey); info.State != StateQueued || info.Preemptions != 1 {
		t.Fatalf("sync job is %s with %d preemptions, want queued after one", info.State, info.Preemptions)
	}
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned collect returned %v", err)
	}
	if info, _ := m.Get(syncKey); info.State != StateQueued {
		t.Fatalf("preempted job is %s after its waiter left, want queued", info.State)
	}
	m.mu.Lock()
	parked := m.jobs[syncKey].rc != nil
	m.mu.Unlock()
	if !parked {
		t.Fatal("parked collection dropped after the waiter left")
	}
	h.release(highKey)
	waitState(t, m, syncKey, StateDone)
	if p := m.Pool(); p.Skipped != 0 {
		t.Fatalf("preempted job withdrawn: %+v", p)
	}
}

// TestJobsSyncPreemptsAsyncOfItsClass: when every runner is busy, a sync
// collect makes a running async job of its own class yield at its next
// slice boundary, and finishes before it; a running sync job is never made
// to yield to another one. Memory mode parks the yielded collection just as
// a jobs directory does, so the sync answer comes after one slice in both.
func TestJobsSyncPreemptsAsyncOfItsClass(t *testing.T) {
	for _, mode := range []string{"memory", "dir"} {
		t.Run(mode, func(t *testing.T) {
			asyncKey, asyncReq := collectPoint(t, 4, 1)
			syncKey, syncReq := collectPoint(t, 4, 2)
			laterKey, laterReq := collectPoint(t, 4, 3)
			h := newHoldSlices(asyncKey, syncKey)
			opts := Options{Runners: 1, SliceCycles: 2000, SliceHook: h.hook}
			if mode == "dir" {
				opts.Dir = t.TempDir()
			}
			m, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer drainManager(t, m)
			defer h.releaseAll()
			if _, _, err := m.Submit("", asyncReq); err != nil {
				t.Fatal(err)
			}
			h.wait(asyncKey)
			syncDone := collectAsync(context.Background(), m, syncKey, syncReq)
			waitPool(t, m, "a queued sync job", func(p PoolStats) bool { return p.SyncQueued == 1 })
			h.release(asyncKey)
			h.wait(syncKey) // the async job yielded to the sync one
			later := collectAsync(context.Background(), m, laterKey, laterReq)
			waitPool(t, m, "a second queued sync job", func(p PoolStats) bool { return p.SyncQueued == 1 })
			h.release(syncKey)
			for _, ch := range []<-chan error{syncDone, later} {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
			if info, _ := m.Get(asyncKey); info.State.Terminal() || info.Preemptions != 1 {
				t.Fatalf("async job is %s with %d preemptions when the sync ones returned, want unfinished, preempted once", info.State, info.Preemptions)
			}
			if got := m.Metrics().preemptions.Load(); got != 1 {
				t.Fatalf("preemptions = %d, want 1: a sync job was made to yield", got)
			}
			// The async job continues from its parked collection to the
			// byte-identical result.
			body, err := m.Collect(context.Background(), asyncKey, asyncReq)
			if err != nil || !bytes.Equal(body, collectBody(t, 4, 1)) {
				t.Fatalf("preempted async job: err %v, body not byte-identical to an uninterrupted run", err)
			}
			if got := m.Metrics().freshStarts.Load(); got != 3 {
				t.Fatalf("fresh starts = %d, want 3: the preempted job re-ran instead of continuing", got)
			}
		})
	}
}

// TestJobsParkedCollectionsBounded runs a preemption storm in memory mode:
// two runners, twenty low-class async jobs, and a stream of pairs of
// high-class async jobs, each pair followed by a sync collect once a
// high-class async job runs — the arrival that could preempt a third job
// while two collections are parked. Every job finishes with its
// uninterrupted result, jobs do yield, and at no slice boundary are more
// than Runners collections parked.
func TestJobsParkedCollectionsBounded(t *testing.T) {
	const runners = 2
	classes, err := ParseClasses("interactive:8,batch:1")
	if err != nil {
		t.Fatal(err)
	}
	var (
		m         *Manager
		maxParked atomic.Int64
		mu        sync.Mutex
		bodies    = map[string][]byte{}
	)
	m, err = Open(Options{Classes: classes, Runners: runners, SliceCycles: 5000,
		SliceHook: func(string) {
			m.mu.Lock()
			n := int64(m.parked)
			m.mu.Unlock()
			for cur := maxParked.Load(); n > cur && !maxParked.CompareAndSwap(cur, n); cur = maxParked.Load() {
			}
			time.Sleep(time.Millisecond) // a slice long enough for arrivals to land mid-job
		},
		OnResult: func(id string, body []byte, _ *hwgc.CollectResponse) {
			mu.Lock()
			bodies[id] = body
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int64{}
	submit := func(class string, seed int64) {
		key, canonical := collectPoint(t, 2, seed)
		if _, _, err := m.Submit(class, canonical); err != nil {
			t.Fatal(err)
		}
		seeds[key] = seed
	}
	interactiveRunning := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, r := range m.running {
			if r.Class == "interactive" && r.waiters == 0 {
				return true
			}
		}
		return false
	}
	for seed := int64(0); seed < 20; seed++ {
		submit("batch", seed)
	}
	var syncs []<-chan error
	for i := int64(0); i < 8; i++ {
		waitPool(t, m, "busy runners", func(p PoolStats) bool { return p.Running == runners })
		submit("interactive", 100+2*i)
		submit("interactive", 101+2*i)
		for deadline := time.Now().Add(30 * time.Second); !interactiveRunning(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no interactive async job ever ran")
			}
		}
		key, canonical := collectPoint(t, 2, 200+i)
		syncs = append(syncs, collectAsync(context.Background(), m, key, canonical))
		seeds[key] = 200 + i
	}
	for _, ch := range syncs {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	drainManager(t, m) // memory mode: runs every admitted job to completion
	for key, seed := range seeds {
		if !bytes.Equal(bodies[key], collectBody(t, 2, seed)) {
			t.Fatalf("seed %d: body not byte-identical to an uninterrupted run", seed)
		}
	}
	t.Logf("%d preemptions, at most %d collections parked", m.Metrics().preemptions.Load(), maxParked.Load())
	if m.Metrics().preemptions.Load() == 0 {
		t.Fatal("no job yielded: the storm never preempted")
	}
	if got := maxParked.Load(); got > runners {
		t.Fatalf("%d collections parked at once, want at most %d", got, runners)
	}
	if m.parked != 0 {
		t.Fatalf("%d collections still parked with every job finished", m.parked)
	}
}
