package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hwgc"
	"hwgc/internal/jobs"
)

// Sentinel errors for the coordinator's lookup methods.
var (
	// ErrNotFound reports an unknown sweep ID.
	ErrNotFound = errors.New("sweep: no such sweep")
	// ErrTerminal reports a cancel of an already-finished sweep.
	ErrTerminal = errors.New("sweep: sweep already in a terminal state")
)

// Runner carries a Coordinator's points to terminal outcomes. gcserved
// runs them as local jobs (JobsRunner); gcfleet routes each point's job to
// the backend that owns its content key.
type Runner interface {
	// Admit resolves a new sweep's class and, for a durable runner, records
	// the sweep before it becomes visible, so recovery never misses an
	// acknowledged sweep.
	Admit(id string, canonical []byte, class string) (string, error)
	// Cancelled records a DELETE of sweep id durably.
	Cancelled(id string) error
	// Persisted returns the sweeps recorded before a restart, in
	// submission order.
	Persisted() ([]Persisted, error)
	// Inflight bounds how many points of one sweep run at once; 0 means
	// every point at once.
	Inflight() int
	// RunPoint carries the point at index to a terminal outcome. It returns
	// early, with any result, once ctx is done: the sweep was cancelled or
	// the coordinator is closing.
	RunPoint(ctx context.Context, class string, index int, p hwgc.SweepPoint) Result
	// CancelJob cancels one point's job, best-effort.
	CancelJob(key string)
}

// Persisted is one sweep a durable runner recorded.
type Persisted struct {
	ID        string
	Space     *hwgc.SweepSpace
	Class     string
	Cancelled bool
}

// Result is one point's terminal outcome: failed when Err is set, done with
// Outcome otherwise.
type Result struct {
	Outcome PointOutcome
	Err     string
	// Deduped marks a result obtained without a new execution (a cache hit,
	// or a submission coalesced onto an existing job).
	Deduped bool
	// Jobs counts the fresh job executions the point spawned.
	Jobs int
}

// Coordinator owns the sweep table: it plans spaces, dedupes whole sweeps
// by content address, hands every point to its Runner under the runner's
// in-flight bound, applies the outcomes to each sweep's tracker, and keeps
// each sweep's frontier and event stream. gcserved and gcfleet run the same
// Coordinator; only the Runner differs.
type Coordinator struct {
	runner  Runner
	metrics *Metrics

	ctx    context.Context // cancelled by Close; parent of every sweep's runner context
	cancel context.CancelFunc
	wg     sync.WaitGroup // sweep drivers and background job cancels

	mu     sync.Mutex
	sweeps map[string]*tracker
}

// New returns a Coordinator over r. Call Recover to replay persisted
// sweeps, and Close before shutting r's backing tier down.
func New(r Runner) *Coordinator {
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		runner:  r,
		metrics: NewMetrics(),
		ctx:     ctx,
		cancel:  cancel,
		sweeps:  make(map[string]*tracker),
	}
}

// Metrics returns the coordinator's counter set.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Submit plans and launches the sweep described by space. The sweep ID is
// the content address of the canonical space, so resubmitting an identical
// space dedupes onto the live (or finished) sweep — accepted is false and
// zero new jobs are created. A superset space gets a new ID but its
// already-computed points dedupe point-by-point against the cache and job
// table, running only the delta.
func (c *Coordinator) Submit(space *hwgc.SweepSpace, class string) (Info, bool, error) {
	canonical, err := space.CanonicalJSON()
	if err != nil {
		return Info{}, false, err
	}
	id := hwgc.KeyBytes(canonical)
	points, err := space.Points()
	if err != nil {
		return Info{}, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.sweeps[id]; ok {
		c.metrics.sweepsDeduped.Add(1)
		return t.Info(), false, nil
	}
	if c.ctx.Err() != nil {
		return Info{}, false, jobs.ErrDraining
	}
	class, err = c.runner.Admit(id, canonical, class)
	if err != nil {
		return Info{}, false, err
	}
	t := newTracker(id, space, class, points, c.metrics)
	c.sweeps[id] = t
	c.startLocked(t)
	return t.Info(), true, nil
}

// startLocked launches t's driver. Caller holds c.mu, and the coordinator
// is not closed.
func (c *Coordinator) startLocked(t *tracker) {
	ctx, cancel := context.WithCancel(c.ctx)
	t.stop = cancel
	c.wg.Add(1)
	go c.run(ctx, t)
}

// run hands every point of t to the runner, at most Inflight at once, and
// returns when every point's runner call has returned.
func (c *Coordinator) run(ctx context.Context, t *tracker) {
	defer c.wg.Done()
	defer t.stop()
	limit := c.runner.Inflight()
	if limit <= 0 {
		limit = len(t.Points)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := range t.Points {
		select {
		case <-ctx.Done():
			return
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(index int) {
			defer wg.Done()
			defer func() { <-sem }()
			c.settle(ctx, t, index, c.runner.RunPoint(ctx, t.Class, index, t.Points[index]))
		}(i)
	}
}

// settle applies one point's outcome. A result that arrives after ctx is
// done is dropped: a cancel already settled every pending point, and a
// closing coordinator leaves the sweep for recovery to resume.
func (c *Coordinator) settle(ctx context.Context, t *tracker, index int, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx.Err() != nil {
		return
	}
	t.NoteJobsSubmitted(res.Jobs)
	if res.Err != "" {
		t.FailPoint(index, res.Err)
		return
	}
	t.CompletePoint(index, res.Outcome, res.Deduped)
}

// Recover replays the runner's persisted sweeps and relaunches every
// non-cancelled one. Points whose jobs completed before the crash (or
// whose results the cache still holds) dedupe instantly, so only genuinely
// unfinished work runs again. Call once, before serving traffic (and so
// before Close).
func (c *Coordinator) Recover() error {
	recs, err := c.runner.Persisted()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		if _, dup := c.sweeps[r.ID]; dup {
			continue
		}
		points, err := r.Space.Points()
		if err != nil {
			return fmt.Errorf("sweep: recovering %s: %w", r.ID, err)
		}
		t := newTracker(r.ID, r.Space, r.Class, points, c.metrics)
		c.sweeps[r.ID] = t
		if r.Cancelled {
			// The DELETE was durable: rebuild the sweep as cancelled without
			// touching the runner. Completed results are not re-attached —
			// the record of interest for a cancelled sweep is its state.
			t.MarkCancelRequested()
			for i := range points {
				t.CancelPoint(i)
			}
		} else {
			c.startLocked(t)
		}
	}
	return nil
}

// Get returns one sweep's progress snapshot.
func (c *Coordinator) Get(id string) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.sweeps[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	return t.Info(), nil
}

// Cancel cancels a sweep. The cancel is recorded durably, every pending
// point becomes cancelled at once (so the sweep is terminal when Cancel
// returns), the sweep's runner context is cancelled, and the pending
// points' jobs are cancelled best-effort in the background — except a job
// another live sweep still waits for, whose cancellation would fail a
// sweep the client did not touch. Terminal sweeps return ErrTerminal with
// their final Info.
func (c *Coordinator) Cancel(id string) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.sweeps[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	if t.Terminal() {
		return t.Info(), ErrTerminal
	}
	if err := c.runner.Cancelled(id); err != nil {
		return Info{}, err
	}
	shared := make(map[string]bool)
	for oid, ot := range c.sweeps {
		if oid == id || ot.Terminal() {
			continue
		}
		for _, k := range ot.PendingKeys() {
			shared[k] = true
		}
	}
	var unshared []string
	for _, k := range t.PendingKeys() {
		if !shared[k] {
			unshared = append(unshared, k)
		}
	}
	t.MarkCancelRequested()
	for i := range t.Points {
		t.CancelPoint(i)
	}
	t.stop()
	if c.ctx.Err() == nil {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for _, k := range unshared {
				c.runner.CancelJob(k)
			}
		}()
	}
	return t.Info(), nil
}

// Subscribe returns a sweep's replayable event history plus a live channel
// (nil when the sweep is already terminal). The returned stop function
// detaches the subscription.
func (c *Coordinator) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	c.mu.Lock()
	t, ok := c.sweeps[id]
	c.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	history, ch := t.Events.Subscribe()
	return history, ch, func() { t.Events.Unsubscribe(ch) }, nil
}

// Close stops every sweep driver and waits for the drivers and background
// job cancels to exit. In-flight sweeps of a durable runner resume on the
// next Recover. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.cancel()
	c.mu.Unlock()
	c.wg.Wait()
}
