package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

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

// auxSweepTag and auxCancelTag are the jobs-WAL aux record tags the
// coordinator persists sweep lifecycle under: one "sweep" record per
// accepted space (payload: auxSweep), one "sweep-cancel" record per DELETE.
// Replaying them in order rebuilds every sweep across a restart without a
// second log.
const (
	auxSweepTag  = "sweep"
	auxCancelTag = "sweep-cancel"
)

// auxSweep is the durable payload of one accepted sweep.
type auxSweep struct {
	Space json.RawMessage // canonical SweepSpace bytes
	Class string          `json:",omitempty"`
}

// maxPointResubmits bounds how often a point whose job terminated without a
// result (cancelled externally, or migrated to another backend) is revived
// before the point is declared failed.
const maxPointResubmits = 5

// Options configures a Coordinator.
type Options struct {
	// Jobs executes the points. Required.
	Jobs *jobs.Manager
	// Lookup consults the serving tier's result cache before submitting a
	// point as a job; a hit completes the point instantly (marked deduped).
	// Optional.
	Lookup func(key string) ([]byte, bool)
	// Clock overrides time.Now for event and Info timestamps (tests).
	Clock func() time.Time
}

// Coordinator owns the sweep table on one gcserved node: it plans spaces,
// dedupes points against cached results, submits the remainder as gcjobs
// jobs, watches their terminal transitions, and maintains each sweep's
// frontier and event stream. Sweep submissions and cancellations ride the
// jobs WAL as aux records, so Recover rebuilds mid-flight sweeps after a
// crash without re-running completed points (their jobs dedupe by content
// key against the recovered job table and result cache).
type Coordinator struct {
	opts    Options
	metrics *Metrics

	mu     chan struct{} // 1-buffered mutex; select-able against stop
	sweeps map[string]*Tracker
	order  []string
	stop   chan struct{}
	done   chan struct{} // closed when every watcher exited
	nwatch int
}

// New returns a Coordinator. Call Recover to replay persisted sweeps, and
// Close before shutting the job manager down.
func New(opts Options) (*Coordinator, error) {
	if opts.Jobs == nil {
		return nil, fmt.Errorf("sweep: Options.Jobs is required")
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Coordinator{
		opts:    opts,
		metrics: NewMetrics(),
		mu:      make(chan struct{}, 1),
		sweeps:  make(map[string]*Tracker),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	return c, nil
}

func (c *Coordinator) lock()   { c.mu <- struct{}{} }
func (c *Coordinator) unlock() { <-c.mu }

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
	if class == "" {
		class = c.opts.Jobs.DefaultClass()
	}
	if !c.opts.Jobs.HasClass(class) {
		return Info{}, false, fmt.Errorf("sweep: unknown class %q", class)
	}
	points, err := space.Points()
	if err != nil {
		return Info{}, false, err
	}

	c.lock()
	if t, ok := c.sweeps[id]; ok {
		c.metrics.sweepsDeduped.Add(1)
		info := t.Info()
		c.unlock()
		return info, false, nil
	}
	select {
	case <-c.stop:
		c.unlock()
		return Info{}, false, jobs.ErrDraining
	default:
	}
	// Durable before visible: the aux record is fsynced before the sweep
	// exists anywhere a client could observe it, so recovery never misses
	// an acknowledged sweep.
	payload, err := json.Marshal(auxSweep{Space: canonical, Class: class})
	if err != nil {
		c.unlock()
		return Info{}, false, err
	}
	if err := c.opts.Jobs.AppendAux(auxSweepTag, id, payload); err != nil {
		c.unlock()
		return Info{}, false, err
	}
	t := NewTracker(id, space, class, points, c.metrics, c.opts.Clock)
	c.sweeps[id] = t
	c.order = append(c.order, id)
	c.launchLocked(t)
	info := t.Info()
	c.unlock()
	return info, true, nil
}

// launchLocked resolves every pending point of t: cache hits complete
// immediately, the rest are submitted as jobs and watched. Caller holds the
// coordinator lock.
func (c *Coordinator) launchLocked(t *Tracker) {
	for i := range t.Points {
		if t.PointPending(i) {
			c.launchPointLocked(t, i, 0)
		}
	}
}

// launchPointLocked satisfies one point from the cache or hands it to the
// job tier, spawning a watcher for its terminal transition. Caller holds
// the coordinator lock.
func (c *Coordinator) launchPointLocked(t *Tracker, index, attempts int) {
	p := t.Points[index]
	if c.opts.Lookup != nil {
		if body, ok := c.opts.Lookup(p.Key); ok {
			if outcome, err := decodeOutcome(index, p, body); err == nil {
				t.CompletePoint(index, outcome, true)
				return
			}
			// An undecodable cache body falls through to a fresh execution.
		}
	}
	_, accepted, err := c.opts.Jobs.Submit(jobs.KindCollect, t.Class, p.Canonical)
	if err != nil {
		t.FailPoint(index, err.Error())
		return
	}
	if accepted {
		t.NoteJobSubmitted()
	}
	c.nwatch++
	go c.watchPoint(t, index, attempts, !accepted)
}

// decodeOutcome parses a point's encoded CollectResponse body.
func decodeOutcome(index int, p hwgc.SweepPoint, body []byte) (PointOutcome, error) {
	var resp hwgc.CollectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return PointOutcome{}, err
	}
	return PointOutcome{Index: index, Key: p.Key, Req: p.Req, Result: resp.Result}, nil
}

// watchPoint waits for one point's job to reach a terminal state and
// applies the transition to the tracker. Terminal events can be dropped by
// a full subscriber buffer (the channel still closes), so a closed channel
// re-checks the job table before concluding anything.
func (c *Coordinator) watchPoint(t *Tracker, index, attempts int, coalesced bool) {
	defer c.watcherExit()
	p := t.Points[index]
	state, errMsg, ok := c.awaitTerminal(p.Key)
	if !ok {
		return // coordinator stopping; recovery resumes the sweep
	}

	c.lock()
	defer c.unlock()
	if !t.PointPending(index) {
		return
	}
	switch state {
	case jobs.StateDone:
		body, _, err := c.opts.Jobs.Result(p.Key)
		if err != nil {
			t.FailPoint(index, err.Error())
			return
		}
		outcome, err := decodeOutcome(index, p, body)
		if err != nil {
			t.FailPoint(index, err.Error())
			return
		}
		t.CompletePoint(index, outcome, coalesced)
	case jobs.StateFailed:
		t.FailPoint(index, errMsg)
	case jobs.StateCancelled, jobs.StateMigrated:
		if t.CancelRequested() && state == jobs.StateCancelled {
			t.CancelPoint(index)
			return
		}
		// Cancelled by someone else, or migrated to another backend: the
		// sweep still wants the result here, so revive the job (determinism
		// makes duplicate execution harmless). Bounded, to rule out a
		// livelock against a client cancelling in a loop.
		if attempts+1 >= maxPointResubmits {
			t.FailPoint(index, fmt.Sprintf("sweep: point job %s after %d resubmits", state, attempts+1))
			return
		}
		c.launchPointLocked(t, index, attempts+1)
	}
}

// awaitTerminal blocks until the job reaches a terminal state, the
// coordinator stops (ok=false), or the job disappears (treated as
// cancelled, which triggers a resubmit).
func (c *Coordinator) awaitTerminal(key string) (state jobs.State, errMsg string, ok bool) {
	for {
		history, ch, stopSub, err := c.opts.Jobs.Subscribe(key)
		if err != nil {
			// Unknown job: compacted away or never admitted; resubmit path.
			return jobs.StateCancelled, "", true
		}
		for _, ev := range history {
			if ev.State.Terminal() {
				stopSub()
				return ev.State, ev.Error, true
			}
		}
		if ch == nil {
			stopSub()
			// Terminal but absent from the bounded history (pathological
			// churn); ask the table directly.
			if info, err := c.opts.Jobs.Get(key); err == nil && info.State.Terminal() {
				return info.State, info.Error, true
			}
			return jobs.StateCancelled, "", true
		}
		closed := false
		for !closed {
			select {
			case <-c.stop:
				stopSub()
				return "", "", false
			case ev, alive := <-ch:
				if !alive {
					closed = true
					break
				}
				if ev.State.Terminal() {
					stopSub()
					return ev.State, ev.Error, true
				}
			}
		}
		stopSub()
		// Channel closed: a terminal event fired but may have been dropped.
		if info, err := c.opts.Jobs.Get(key); err == nil && info.State.Terminal() {
			return info.State, info.Error, true
		}
		// A revival raced the close; subscribe to the fresh event log.
	}
}

func (c *Coordinator) watcherExit() {
	c.lock()
	c.nwatch--
	last := c.nwatch == 0
	var stopping bool
	select {
	case <-c.stop:
		stopping = true
	default:
	}
	c.unlock()
	if last && stopping {
		close(c.done)
	}
}

// Recover replays the persisted sweep records and relaunches every
// non-cancelled sweep. Points whose jobs completed before the crash (or
// whose results the cache still holds) dedupe instantly, so only genuinely
// unfinished work runs again. Call once, before serving traffic.
func (c *Coordinator) Recover() error {
	type rec struct {
		space     *hwgc.SweepSpace
		class     string
		cancelled bool
	}
	table := make(map[string]*rec)
	var order []string
	for _, a := range c.opts.Jobs.AuxRecords("") {
		switch a.Tag {
		case auxSweepTag:
			if _, dup := table[a.ID]; dup {
				continue
			}
			var ax auxSweep
			if err := json.Unmarshal(a.Payload, &ax); err != nil {
				return fmt.Errorf("sweep: aux record %s: %w", a.ID, err)
			}
			sp, err := hwgc.DecodeSweepSpace(bytes.NewReader(ax.Space))
			if err != nil {
				return fmt.Errorf("sweep: aux record %s: %w", a.ID, err)
			}
			table[a.ID] = &rec{space: sp, class: ax.Class}
			order = append(order, a.ID)
		case auxCancelTag:
			if r, ok := table[a.ID]; ok {
				r.cancelled = true
			}
		}
	}
	for _, id := range order {
		r := table[id]
		class := r.class
		if class == "" || !c.opts.Jobs.HasClass(class) {
			class = c.opts.Jobs.DefaultClass()
		}
		points, err := r.space.Points()
		if err != nil {
			return fmt.Errorf("sweep: recovering %s: %w", id, err)
		}
		c.lock()
		if _, dup := c.sweeps[id]; dup {
			c.unlock()
			continue
		}
		t := NewTracker(id, r.space, class, points, c.metrics, c.opts.Clock)
		c.sweeps[id] = t
		c.order = append(c.order, id)
		if r.cancelled {
			// The DELETE was durable: rebuild the sweep as cancelled without
			// touching the job tier. Completed results are not re-attached —
			// the record of interest for a cancelled sweep is its state.
			t.MarkCancelRequested()
			for i := range points {
				t.CancelPoint(i)
			}
		} else {
			c.launchLocked(t)
		}
		c.unlock()
	}
	return nil
}

// Get returns one sweep's progress snapshot.
func (c *Coordinator) Get(id string) (Info, error) {
	c.lock()
	defer c.unlock()
	t, ok := c.sweeps[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	return t.Info(), nil
}

// Cancel cancels a sweep: its record is persisted, outstanding point jobs
// not shared with another live sweep are cancelled, and the sweep reaches
// the cancelled state once every point settles. Terminal sweeps return
// ErrTerminal with their final Info.
func (c *Coordinator) Cancel(id string) (Info, error) {
	c.lock()
	t, ok := c.sweeps[id]
	if !ok {
		c.unlock()
		return Info{}, ErrNotFound
	}
	if t.Terminal() {
		info := t.Info()
		c.unlock()
		return info, ErrTerminal
	}
	if err := c.opts.Jobs.AppendAux(auxCancelTag, id, nil); err != nil {
		c.unlock()
		return Info{}, err
	}
	t.MarkCancelRequested()
	// A point job feeding another live sweep must keep running; cancelling
	// it would fail a sweep the client did not touch.
	shared := make(map[string]bool)
	for oid, ot := range c.sweeps {
		if oid == id || ot.Terminal() {
			continue
		}
		for _, k := range ot.PendingKeys() {
			shared[k] = true
		}
	}
	pending := t.PendingKeys()
	info := t.Info()
	c.unlock()
	for _, k := range pending {
		if !shared[k] {
			_, _ = c.opts.Jobs.Cancel(k) // ErrTerminal/ErrNotFound: fine, watcher settles it
		}
	}
	return info, nil
}

// Subscribe returns a sweep's replayable event history plus a live channel
// (nil when the sweep is already terminal). The returned stop function
// detaches the subscription.
func (c *Coordinator) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	c.lock()
	t, ok := c.sweeps[id]
	if !ok {
		c.unlock()
		return nil, nil, nil, ErrNotFound
	}
	ev := t.Events
	c.unlock()
	history, ch := ev.Subscribe()
	return history, ch, func() { ev.Unsubscribe(ch) }, nil
}

// Close stops every point watcher. In-flight sweeps stay durable in the
// WAL; the next Open+Recover resumes them.
func (c *Coordinator) Close() {
	c.lock()
	select {
	case <-c.stop:
		c.unlock()
		return
	default:
	}
	close(c.stop)
	idle := c.nwatch == 0
	c.unlock()
	if idle {
		close(c.done)
	}
	<-c.done
}
