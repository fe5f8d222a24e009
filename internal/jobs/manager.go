package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hwgc"
	"hwgc/internal/events"
	"hwgc/internal/stats"
)

// Sentinel errors returned by the Manager's lookup and transition methods.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotDone reports a result request for a job that has not finished.
	ErrNotDone = errors.New("jobs: job not finished")
	// ErrTerminal reports a cancel of an already-finished job.
	ErrTerminal = errors.New("jobs: job already in a terminal state")
	// ErrDraining reports a submission to a draining manager.
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrQueueFull reports a Collect that would queue more jobs with a
	// synchronous waiter than Options.QueueDepth allows.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrPreempted reports a Collect whose job a draining manager left
	// queued, or that migrated to another backend: the job is durable in
	// the WAL, and the next manager on the same Dir (or the backend it was
	// resubmitted to) runs it again from its request.
	ErrPreempted = errors.New("jobs: job preempted by drain or migrated")
)

// Internal control-flow sentinels for the runner loop.
var (
	errPreempted = errors.New("jobs: preempted at a slice boundary")
	errCancelled = errors.New("jobs: cancelled")
)

// Options configures a Manager.
type Options struct {
	// Dir is the durable jobs directory, which holds only the WAL: a job is
	// durable through its submit record and re-runs from its request after
	// a crash or a drain. Empty selects memory mode: no WAL, Drain runs
	// every admitted job to completion, and a terminal job leaves the table
	// once its Collect waiters have its outcome.
	Dir string
	// Classes is the priority class set; empty selects DefaultClasses.
	Classes []ClassConfig
	// Runners is the number of concurrent job runners (default 2).
	Runners int
	// QueueDepth bounds the queued jobs that have a Collect waiter: a
	// Collect that would queue one more fails with ErrQueueFull. Zero means
	// unbounded. Submit is not bounded.
	QueueDepth int
	// SliceCycles is the slice length: how many simulated cycles a job runs
	// between the boundaries where it can be cancelled or yield (default
	// 200000).
	SliceCycles int64
	// RetainTerminal bounds how many terminal jobs (and their result
	// bodies) survive WAL compaction (default 1024). Compaction runs at
	// startup and again each time that many jobs have finished, so the job
	// table and the log hold fewer than twice this many terminal jobs.
	RetainTerminal int
	// Aging is the scheduler's anti-starvation bonus per losing pick;
	// non-positive selects the default.
	Aging float64
	// OnResult, when set, is called with no manager locks held for every
	// job that completes here: its ID, its encoded result body and the
	// response (nil when Run replaced the simulation). A job is reported
	// before its done transition is published, so a waiter woken by that
	// transition sees the hook's effects. gcserved uses it to fill its
	// result cache and its collect scenario series.
	OnResult func(id string, body []byte, resp *hwgc.CollectResponse)
	// SliceHook, when set, is called at every slice boundary with no locks
	// held; tests use it to make preemption and crashes deterministic.
	SliceHook func(id string)
	// Clock overrides time.Now for Info timestamps (tests).
	Clock func() time.Time
	// Run, when set, replaces the simulation of every job: the manager
	// calls it with the job's request and takes its body as the result,
	// with no slices. For tests only; production leaves it nil.
	Run func(req hwgc.CollectRequest) ([]byte, error)
}

func (o Options) withDefaults() Options {
	if o.Runners <= 0 {
		o.Runners = 2
	}
	if o.SliceCycles <= 0 {
		o.SliceCycles = 200_000
	}
	if o.RetainTerminal <= 0 {
		o.RetainTerminal = 1024
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// job is the Manager's runtime record of one submission. Fields below the
// request block are guarded by Manager.mu except the atomic flags, which the
// runner polls at slice boundaries without taking the lock.
type job struct {
	ID    string
	Kind  string // KindCollect, or "sweep" for a job replayed from an old WAL
	Class string
	Req   json.RawMessage // canonical request JSON (the bytes the ID hashes)

	State       State
	Cycle       int64
	Preemptions int64
	ErrMsg      string
	ResultBody  []byte
	Submitted   time.Time
	Started     time.Time
	Finished    time.Time
	// rc is the live collection of a job that yielded at a slice boundary:
	// it stays queued and its next dispatch continues from rc.
	rc *hwgc.RequestCollection

	preempt    atomic.Bool // yield at the next slice boundary
	cancel     atomic.Bool // cancel at the next slice boundary
	migrateOut atomic.Bool // a cancel is a migration handoff, not a user cancel
	events     *events.Log[Event]

	// Guarded by Manager.mu: the Collect calls waiting for the job, whether
	// a Submit asked for it (then it is never withdrawn), and the channel
	// the next state change closes for those waiters.
	waiters int
	async   bool
	changed chan struct{}
}

// emit records one lifecycle event on j's stream.
func (j *job) emit(state State, cycle int64, errMsg string) {
	j.events.Emit(Event{State: state, Cycle: cycle, Error: errMsg})
}

// Manager owns the job table, the WAL, the scheduler and the runner pool.
type Manager struct {
	opts    Options
	sched   *Scheduler
	metrics *Metrics

	mu       sync.Mutex
	wal      *WAL // nil in memory mode
	jobs     map[string]*job
	order    []string        // job IDs in submission order
	aux      []AuxRecord     // auxiliary subsystem records, in append order
	running  map[string]*job // jobs on a runner
	parked   int             // queued jobs holding a live collection (job.rc)
	finished int             // terminal transitions since the last compaction
	closed   bool
	draining chan struct{}
	wg       sync.WaitGroup

	started   stats.Int // dispatches: fresh starts and continued collections
	ended     stats.Int // dispatches that ended: done, failed or yielded
	withdrawn stats.Int // queued jobs withdrawn when their last waiter left
}

// AuxRecord is one auxiliary record riding the jobs WAL: a durable,
// replayable note owned by a subsystem layered on the job tier (the sweep
// coordinator persists sweep submissions and cancellations this way, so a
// crash mid-sweep recovers without a second log to fsync or keep
// crash-consistent with this one).
type AuxRecord struct {
	Tag     string
	ID      string
	Payload []byte
	At      time.Time
}

// maxAuxRetain bounds how many auxiliary records survive WAL compaction at
// startup; the newest win, mirroring RetainTerminal for jobs.
const maxAuxRetain = 4096

// Open replays the WAL in opts.Dir, compacts the log and starts the runner
// pool. Every job that had not finished when the previous process stopped
// is re-admitted queued and re-runs from its request: results are
// deterministic, so the re-run's body is byte-identical. With no Dir it
// starts an empty memory-mode manager.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if len(opts.Classes) == 0 {
		cs, err := ParseClasses(DefaultClasses)
		if err != nil {
			return nil, err
		}
		opts.Classes = cs
	}
	sched, err := NewScheduler(opts.Classes, opts.Aging)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		opts:     opts,
		sched:    sched,
		metrics:  NewMetrics(sched.Depths),
		jobs:     make(map[string]*job),
		running:  make(map[string]*job),
		draining: make(chan struct{}),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		removeStaleFiles(opts.Dir)
		wal, recs, err := OpenWAL(opts.Dir, m.metrics)
		if err != nil {
			return nil, err
		}
		m.wal = wal
		if err := m.recover(recs); err != nil {
			wal.Close()
			return nil, err
		}
	}
	for i := 0; i < opts.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// recover rebuilds the job table from replayed WAL records, compacts the
// log and re-admits unfinished work.
func (m *Manager) recover(recs []walRecord) error {
	for i := range recs {
		rec := &recs[i]
		switch rec.Type {
		case recSubmit:
			if rec.ID == "" || rec.Kind == "" {
				return fmt.Errorf("jobs: WAL submit record missing id or kind")
			}
			if _, dup := m.jobs[rec.ID]; dup {
				return fmt.Errorf("jobs: WAL resubmits job %s", rec.ID)
			}
			class := rec.Class
			if !m.sched.Class(class) {
				// The class set changed across the restart; fall back to
				// the default class rather than stranding the job.
				class = m.opts.Classes[0].Name
			}
			j := &job{
				ID: rec.ID, Kind: rec.Kind, Class: class, Req: rec.Request,
				State: StateQueued, Submitted: rec.At,
				events: newEventLog(m.opts.Clock), async: true,
			}
			m.jobs[rec.ID] = j
			m.order = append(m.order, rec.ID)
		case recState:
			j := m.jobs[rec.ID]
			if j == nil {
				return fmt.Errorf("jobs: WAL transition for unknown job %s", rec.ID)
			}
			switch rec.State {
			case StateRunning, StateCheckpointed:
				// Written by older versions. Either way the job re-runs
				// from its request, so it is queued.
				j.State = StateQueued
				if j.Started.IsZero() {
					j.Started = rec.At
				}
			case StateQueued: // revival of a failed, cancelled or migrated job
				j.State = StateQueued
				j.ErrMsg = ""
				j.Finished = time.Time{}
			case StateFailed, StateCancelled, StateMigrated:
				j.State = rec.State
				j.ErrMsg = rec.Error
				j.Finished = rec.At
			default:
				return fmt.Errorf("jobs: WAL job %s: bad state %q", rec.ID, rec.State)
			}
		case recPoint:
			// A completed point of an old WAL's sweep job; such jobs never
			// resume, so the point is not needed.
		case recResult:
			j := m.jobs[rec.ID]
			if j == nil {
				return fmt.Errorf("jobs: WAL result for unknown job %s", rec.ID)
			}
			j.State = StateDone
			j.ResultBody = rec.Body
			j.Finished = rec.At
		case recAux:
			if rec.Kind == "" {
				return fmt.Errorf("jobs: WAL aux record missing tag")
			}
			m.aux = append(m.aux, AuxRecord{Tag: rec.Kind, ID: rec.ID, Payload: rec.Body, At: rec.At})
		default:
			return fmt.Errorf("jobs: unknown WAL record type %d", rec.Type)
		}
	}
	// An old WAL's unfinished sweep job is failed: sweeps now run as
	// collect jobs, one per point, and the compaction below records that.
	for _, j := range m.jobs {
		if j.Kind != KindCollect && !j.State.Terminal() {
			j.State = StateFailed
			j.ErrMsg = errLegacySweep
			j.Finished = m.opts.Clock()
		}
	}
	if err := m.compact(len(recs) > 0); err != nil {
		return err
	}
	// Re-admit unfinished work, FIFO by submission.
	for _, id := range m.order {
		if j := m.jobs[id]; j.State == StateQueued {
			if err := m.sched.Enqueue(j); err != nil {
				return err
			}
		}
	}
	for _, id := range m.order {
		j := m.jobs[id]
		j.emit(j.State, j.Cycle, j.ErrMsg)
	}
	return nil
}

// errLegacySweep fails an old WAL's unfinished sweep job.
const errLegacySweep = "jobs: sweep jobs are no longer run; resubmit the sweep to POST /v1/sweep or /v1/sweeps, which run each point as a collect job"

// removeStaleFiles deletes what an older version or a crash left in dir
// besides the WAL: job checkpoint files, which no version reads any more,
// and the temp files of an interrupted checkpoint write or WAL compaction.
func removeStaleFiles(dir string) {
	for _, pattern := range []string{"*.ckpt", ".ckpt-*", ".wal-*"} {
		stale, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, path := range stale {
			os.Remove(path)
		}
	}
}

// compact drops the oldest-finished terminal jobs beyond the retention
// bound and, when rewrite is set, rewrites the WAL to exactly the surviving
// table — bounding log growth across restarts and at runtime.
func (m *Manager) compact(rewrite bool) error {
	var terminal []string
	for _, id := range m.order {
		if m.jobs[id].State.Terminal() {
			terminal = append(terminal, id)
		}
	}
	sort.SliceStable(terminal, func(a, b int) bool {
		return m.jobs[terminal[a]].Finished.Before(m.jobs[terminal[b]].Finished)
	})
	if drop := len(terminal) - m.opts.RetainTerminal; drop > 0 {
		for _, id := range terminal[:drop] {
			delete(m.jobs, id)
		}
		keep := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				keep = append(keep, id)
			}
		}
		m.order = keep
	}
	if !rewrite {
		return nil
	}
	var recs []walRecord
	for _, id := range m.order {
		j := m.jobs[id]
		recs = append(recs, walRecord{Type: recSubmit, ID: j.ID, Kind: j.Kind, Class: j.Class, Request: j.Req, At: j.Submitted})
		switch j.State {
		case StateQueued, StateRunning: // implied by recSubmit: replay queues it
		case StateFailed, StateCancelled, StateMigrated:
			recs = append(recs, walRecord{Type: recState, ID: j.ID, State: j.State, Error: j.ErrMsg, At: j.Finished})
		case StateDone:
			recs = append(recs, walRecord{Type: recResult, ID: j.ID, State: StateDone, Body: j.ResultBody, At: j.Finished})
		}
	}
	if drop := len(m.aux) - maxAuxRetain; drop > 0 {
		m.aux = append([]AuxRecord(nil), m.aux[drop:]...)
	}
	for _, a := range m.aux {
		recs = append(recs, walRecord{Type: recAux, ID: a.ID, Kind: a.Tag, Body: a.Payload, At: a.At})
	}
	return m.wal.Rewrite(recs)
}

// Submit registers a collect job for the canonical CollectRequest bytes
// and returns its Info. The job ID is the content address of the request
// (hwgc.KeyBytes), so resubmitting the same request dedupes onto the
// existing job (accepted is false and the live Info is returned). Failed,
// cancelled and migrated jobs are revived by resubmission.
func (m *Manager) Submit(class string, canonical []byte) (Info, bool, error) {
	if class == "" {
		class = m.opts.Classes[0].Name
	}
	if !m.sched.Class(class) {
		return Info{}, false, fmt.Errorf("jobs: unknown class %q", class)
	}
	m.mu.Lock()
	j, accepted, err := m.admitLocked(hwgc.KeyBytes(canonical), class, canonical, false)
	if err != nil {
		m.mu.Unlock()
		return Info{}, false, err
	}
	j.async = true
	info := m.infoLocked(j)
	m.mu.Unlock()
	if accepted {
		m.maybePreempt(j)
	}
	return info, accepted, nil
}

// Collect runs the collect whose content key and canonical request bytes
// are key and canonical (as hwgc.SweepPoint carries them) and returns its
// encoded response body. It submits the job in the default class, or
// dedupes onto the job already known under key; a queued job with a
// Collect waiter runs ahead of every queued job without one in its class
// and makes a running job of its class that no Collect waits for yield at
// its next slice boundary when no runner is idle. It fails with
// ErrQueueFull when that would queue more such jobs than
// Options.QueueDepth, and ErrDraining once Drain has begun. It returns when
// the job finishes, when ctx ends, or with ErrPreempted when a draining
// manager with a Dir leaves the job queued (it stays in the WAL for the
// next Open). When the last waiter gives up on a job that is still queued,
// has no parked collection and that no Submit asked for, the job is
// withdrawn, unless a draining manager with a Dir keeps it.
func (m *Manager) Collect(ctx context.Context, key string, canonical []byte) ([]byte, error) {
	class := m.opts.Classes[0].Name
	m.mu.Lock()
	j, _, err := m.admitLocked(key, class, canonical, true)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer m.leave(j)
	m.maybePreempt(j)
	drain := m.draining // nil once its close has been seen
	for {
		m.mu.Lock()
		var body []byte
		done := true
		switch {
		case j.State == StateDone:
			body = j.ResultBody
		case j.State == StateFailed:
			err = errors.New(j.ErrMsg)
		case j.State == StateCancelled:
			err = fmt.Errorf("jobs: collect job %s was cancelled", j.ID)
		case j.State == StateMigrated:
			err = ErrPreempted
		case j.State == StateQueued && m.closed && m.opts.Dir != "":
			err = ErrPreempted // a draining durable manager runs it no further
		default:
			done = false
		}
		if done {
			m.mu.Unlock()
			return body, err
		}
		if j.changed == nil {
			j.changed = make(chan struct{})
		}
		changed := j.changed
		m.mu.Unlock()
		select {
		case <-changed:
		case <-drain:
			drain = nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// admitLocked returns the job with content key id, admitting it in class
// when it is unknown and reviving it when it failed, was cancelled or
// migrated away (the class sticks to the original submission). A sync
// admission registers a Collect waiter and is refused with ErrQueueFull
// when it would add a queued job with a waiter beyond Options.QueueDepth.
// accepted reports a new or revived job. Callers hold m.mu.
func (m *Manager) admitLocked(id, class string, canonical []byte, sync bool) (j *job, accepted bool, err error) {
	if m.closed {
		return nil, false, ErrDraining
	}
	full := sync && m.opts.QueueDepth > 0 && m.sched.SyncBacklog() >= m.opts.QueueDepth
	j, ok := m.jobs[id]
	if ok && !(j.State == StateFailed || j.State == StateCancelled || j.State == StateMigrated) {
		if sync {
			if j.waiters == 0 && j.State == StateQueued && full {
				return nil, false, ErrQueueFull
			}
			// A queued job gaining its first waiter re-enters its class
			// queue in the sync-waited prefix.
			if j.waiters++; j.waiters == 1 && m.sched.Remove(j) {
				_ = m.sched.Enqueue(j)
			}
		}
		m.metrics.deduped.Add(1)
		return j, false, nil
	}
	if full {
		return nil, false, ErrQueueFull
	}
	now := m.opts.Clock()
	if ok {
		// For migrated jobs: the work moved away but a client asked this
		// backend again, so it runs here afresh — determinism makes the
		// duplicate execution harmless.
		if err := m.wal.Append(walRecord{Type: recState, ID: id, State: StateQueued, At: now}); err != nil {
			return nil, false, err
		}
		j.State = StateQueued
		j.ErrMsg = ""
		j.Finished = time.Time{}
		j.cancel.Store(false)
		j.migrateOut.Store(false)
		j.events = newEventLog(m.opts.Clock)
	} else {
		j = &job{
			ID: id, Kind: KindCollect, Class: class, Req: append([]byte(nil), canonical...),
			State: StateQueued, Submitted: now,
			events: newEventLog(m.opts.Clock),
		}
		if err := m.wal.Append(walRecord{Type: recSubmit, ID: id, Kind: KindCollect, Class: class, Request: j.Req, At: now}); err != nil {
			return nil, false, err
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
	if sync {
		j.waiters++
	}
	if err := m.sched.Enqueue(j); err != nil {
		return nil, false, err
	}
	m.metrics.submitted.Add(1)
	j.emit(StateQueued, 0, "")
	return j, true, nil
}

// leave unregisters one Collect waiter of j. The last waiter to leave a
// terminal memory-mode job drops it from the table. One that leaves a job
// still queued withdraws it, unless a Submit asked for it, it holds a parked
// collection, or a draining manager with a Dir keeps it in the WAL for the
// next Open; a job kept queued leaves the sync-waited prefix.
func (m *Manager) leave(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.waiters--; j.waiters > 0 {
		return
	}
	switch {
	case j.State.Terminal():
		if m.opts.Dir == "" {
			m.dropLocked(j)
		}
	case j.State != StateQueued:
		// Running: it finishes and reaches the result cache via OnResult.
	case m.closed && m.opts.Dir != "":
		// Durable: the next Open re-admits it.
	case !j.async && j.rc == nil && m.sched.Remove(j):
		m.finishLocked(j, StateCancelled, nil, errWithdrawn)
	case !m.closed && m.sched.Remove(j):
		_ = m.sched.Enqueue(j) // out of the sync-waited prefix
	}
}

// errWithdrawn is the error of a job withdrawn because every Collect
// waiting for it gave up before it started.
const errWithdrawn = "jobs: withdrawn: every synchronous waiter gave up before it ran"

// dropLocked removes a terminal job from the table. Callers hold m.mu.
func (m *Manager) dropLocked(j *job) {
	if m.jobs[j.ID] != j {
		return
	}
	delete(m.jobs, j.ID)
	if i := slices.Index(m.order, j.ID); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// notifyLocked wakes the Collect waiters of j after a state change.
// Callers hold m.mu.
func (m *Manager) notifyLocked(j *job) {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// maybePreempt flags a running job for a slice-boundary yield when j waits
// for a runner and none is idle. The victim is the weakest running job of
// strictly lower weight than j's class or, when a Collect waits for j, of
// equal weight with no Collect waiting for it: a synchronous request waits
// for at most one slice of async work in its own class. Sync-waited jobs
// never preempt each other and equal-weight async jobs never thrash. A
// victim parks its live collection in memory, so no victim is flagged while
// parked and already flagged jobs number Runners: that caps the parked
// heaps by the configuration.
func (m *Manager) maybePreempt(j *job) {
	w := m.sched.Weight(j.Class)
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.State != StateQueued || len(m.running) < m.opts.Runners {
		return
	}
	parked := m.parked
	for _, r := range m.running {
		if r.preempt.Load() {
			parked++
		}
	}
	if parked >= m.opts.Runners {
		return
	}
	var victim *job
	for _, r := range m.running {
		rw := m.sched.Weight(r.Class)
		eligible := rw < w || rw == w && j.waiters > 0 && r.waiters == 0
		if eligible && !r.preempt.Load() && (victim == nil || rw < m.sched.Weight(victim.Class)) {
			victim = r
		}
	}
	if victim != nil {
		victim.preempt.Store(true)
	}
}

func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		j := m.sched.Next()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if m.closed && m.opts.Dir != "" {
		// Picked just before Drain closed the scheduler: it stays queued,
		// durably in the WAL, for the next Open.
		m.mu.Unlock()
		return
	}
	if j.cancel.Load() {
		m.finishLocked(j, cancelOutcome(j), nil, "")
		m.mu.Unlock()
		return
	}
	j.preempt.Store(false)
	rc := j.rc
	if rc != nil {
		j.rc = nil
		m.parked--
	} else {
		m.metrics.freshStarts.Add(1)
	}
	m.started.Add(1)
	j.State = StateRunning
	if j.Started.IsZero() {
		j.Started = m.opts.Clock()
	}
	m.running[j.ID] = j
	m.metrics.running.Add(1)
	j.emit(StateRunning, j.Cycle, "")
	m.mu.Unlock()

	body, resp, rc, err := m.execute(j, rc)
	if cb := m.opts.OnResult; err == nil && cb != nil {
		cb(j.ID, body, resp)
	}

	m.mu.Lock()
	delete(m.running, j.ID)
	m.metrics.running.Add(-1)
	m.ended.Add(1)
	switch {
	case err == nil:
		m.finishLocked(j, StateDone, body, "")
	case errors.Is(err, errCancelled):
		m.finishLocked(j, cancelOutcome(j), nil, "")
	case errors.Is(err, errPreempted):
		j.State = StateQueued
		j.Preemptions++
		m.metrics.preemptions.Add(1)
		// The job keeps its collection and continues from it at its next
		// dispatch. Enqueue fails only once a durable manager drains: the
		// job then stays queued in the WAL and re-runs after a restart.
		j.rc = rc
		if m.sched.Enqueue(j) == nil {
			m.parked++
		} else {
			j.rc = nil
		}
		j.emit(StateQueued, j.Cycle, "")
		m.notifyLocked(j)
	default:
		m.finishLocked(j, StateFailed, nil, err.Error())
	}
	m.mu.Unlock()
}

// cancelOutcome maps a cancelled job to its terminal state: a cancel raised
// by Release is a migration handoff, not a user cancellation.
func cancelOutcome(j *job) State {
	if j.migrateOut.Load() {
		return StateMigrated
	}
	return StateCancelled
}

// finishLocked moves j to a terminal state, persists the transition, drops
// its parked collection, emits the terminal event, wakes its Collect waiters
// and, every RetainTerminal finishes, compacts the table and the log; in
// memory mode a job nobody waits for leaves the table instead. Callers
// hold m.mu. WAL errors are tolerated here: the in-memory state still
// serves, and determinism makes re-execution after a restart safe.
func (m *Manager) finishLocked(j *job, state State, body []byte, errMsg string) {
	now := m.opts.Clock()
	j.State = state
	j.ErrMsg = errMsg
	j.ResultBody = body
	j.Finished = now
	if state == StateDone {
		_ = m.wal.Append(walRecord{Type: recResult, ID: j.ID, State: StateDone, Body: body, At: now})
		m.metrics.completed.Add(1)
	} else {
		_ = m.wal.Append(walRecord{Type: recState, ID: j.ID, State: state, Error: errMsg, At: now})
		switch state {
		case StateFailed:
			m.metrics.failed.Add(1)
		case StateMigrated:
			m.metrics.migrated.Add(1)
		case StateCancelled:
			if errMsg == errWithdrawn {
				m.withdrawn.Add(1)
			} else {
				m.metrics.cancelled.Add(1)
			}
		}
	}
	if j.rc != nil {
		j.rc = nil
		m.parked--
	}
	j.emit(state, j.Cycle, errMsg)
	m.notifyLocked(j)
	if m.opts.Dir == "" {
		if j.waiters == 0 {
			m.dropLocked(j)
		}
		return
	}
	if m.finished++; m.finished >= m.opts.RetainTerminal && !m.closed {
		m.finished = 0
		_ = m.compact(true)
	}
}

// execute runs j to completion or a yield, continuing rc when the job held
// a parked collection. It returns the encoded body and the collect response
// or, on a yield, the collection to park.
func (m *Manager) execute(j *job, rc *hwgc.RequestCollection) ([]byte, *hwgc.CollectResponse, *hwgc.RequestCollection, error) {
	var req hwgc.CollectRequest
	if err := json.Unmarshal(j.Req, &req); err != nil {
		return nil, nil, nil, err
	}
	if m.opts.Run != nil {
		body, err := m.opts.Run(req)
		return body, nil, nil, err
	}
	if rc == nil {
		var err error
		if rc, err = hwgc.StartCollectRequest(req); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := m.step(j, rc); err != nil {
		return nil, nil, rc, err
	}
	resp, err := rc.Response()
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		return nil, nil, nil, err
	}
	return buf.Bytes(), resp, nil, nil
}

// step drives the job's collection slice by slice until it completes (nil),
// fails, or must stop (errCancelled / errPreempted). Every executed slice is
// charged to the job's class for fair-share accounting.
func (m *Manager) step(j *job, rc *hwgc.RequestCollection) error {
	for {
		done, err := rc.StepCycles(m.opts.SliceCycles)
		if err != nil {
			return err
		}
		m.sched.Charge(j.Class)
		if done {
			return nil
		}
		m.mu.Lock()
		j.Cycle = rc.Cycle()
		m.mu.Unlock()
		if hook := m.opts.SliceHook; hook != nil {
			hook(j.ID)
		}
		if j.cancel.Load() {
			return errCancelled
		}
		if j.preempt.Load() {
			return errPreempted
		}
	}
}

func (m *Manager) infoLocked(j *job) Info {
	return Info{
		ID: j.ID, Kind: j.Kind, Class: j.Class, State: j.State, Cycle: j.Cycle,
		Preemptions: j.Preemptions, Error: j.ErrMsg,
		Submitted: j.Submitted, Started: j.Started, Finished: j.Finished,
	}
}

// Get returns one job's Info.
func (m *Manager) Get(id string) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	return m.infoLocked(j), nil
}

// Result returns a completed job's encoded response body. For jobs in any
// other state it returns the Info and ErrNotDone (callers map states to
// status codes).
func (m *Manager) Result(id string) ([]byte, Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Info{}, ErrNotFound
	}
	info := m.infoLocked(j)
	if j.State == StateDone {
		return j.ResultBody, info, nil
	}
	return nil, info, ErrNotDone
}

// Cancel cancels a job: queued jobs are removed from the scheduler and
// cancelled immediately; running jobs are flagged and stop at their next
// slice boundary (the returned Info then still says running). Terminal jobs
// return ErrTerminal with their final Info.
func (m *Manager) Cancel(id string) (Info, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Info{}, ErrNotFound
	}
	if j.State.Terminal() {
		info := m.infoLocked(j)
		m.mu.Unlock()
		return info, ErrTerminal
	}
	j.cancel.Store(true)
	if j.State == StateQueued && m.sched.Remove(j) {
		m.finishLocked(j, StateCancelled, nil, "")
	}
	info := m.infoLocked(j)
	m.mu.Unlock()
	return info, nil
}

// Subscribe returns a job's replayable event history plus a live channel
// (nil when the job is already terminal). The returned stop function
// detaches the subscription; it is safe to call after the channel closed.
func (m *Manager) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, nil, nil, ErrNotFound
	}
	ev := j.events
	m.mu.Unlock()
	history, ch := ev.Subscribe()
	return history, ch, func() { ev.Unsubscribe(ch) }, nil
}

// AppendAux durably appends one auxiliary record to the jobs WAL. The
// record is fsynced before AppendAux returns, rides compaction (newest
// maxAuxRetain retained) and is replayed in order by the next Open.
func (m *Manager) AppendAux(tag, id string, payload []byte) error {
	if tag == "" {
		return fmt.Errorf("jobs: aux record needs a tag")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrDraining
	}
	a := AuxRecord{Tag: tag, ID: id, Payload: append([]byte(nil), payload...), At: m.opts.Clock()}
	if err := m.wal.Append(walRecord{Type: recAux, ID: a.ID, Kind: a.Tag, Body: a.Payload, At: a.At}); err != nil {
		return err
	}
	m.aux = append(m.aux, a)
	return nil
}

// AuxRecords returns the auxiliary records carrying tag (every record when
// tag is empty), in append order.
func (m *Manager) AuxRecords(tag string) []AuxRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []AuxRecord
	for _, a := range m.aux {
		if tag == "" || a.Tag == tag {
			out = append(out, a)
		}
	}
	return out
}

// Depths returns the queued-job count per class.
func (m *Manager) Depths() map[string]int64 { return m.sched.Depths() }

// Backlog returns the total queued-job count.
func (m *Manager) Backlog() int { return m.sched.Backlog() }

// PoolStats is one sample of the runner pool.
type PoolStats struct {
	SyncQueued int   // queued jobs with a Collect waiter
	QueueDepth int   // their bound, Options.QueueDepth (0: unbounded)
	Running    int64 // jobs on a runner
	Started    int64 // dispatches: fresh starts and continued collections
	Done       int64 // dispatches that ended: done, failed or yielded
	Skipped    int64 // queued jobs withdrawn when their last waiter left
}

// Pool samples the runner pool.
func (m *Manager) Pool() PoolStats {
	return PoolStats{
		SyncQueued: m.sched.SyncBacklog(),
		QueueDepth: m.opts.QueueDepth,
		Running:    m.metrics.running.Load(),
		Started:    m.started.Load(),
		Done:       m.ended.Load(),
		Skipped:    m.withdrawn.Load(),
	}
}

// Metrics returns the manager's counter set.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// DefaultClass returns the class submissions get when they name none.
func (m *Manager) DefaultClass() string { return m.opts.Classes[0].Name }

// HasClass reports whether name is a configured class.
func (m *Manager) HasClass(name string) bool { return m.sched.Class(name) }

// Drain stops accepting submissions and waits for the runners. With a
// Dir, no queued job is dispatched any more, every running job stops at its
// next slice boundary, and the WAL is closed: unfinished jobs stay queued in
// the WAL and re-run on the next Open with byte-identical results. In memory
// mode, where nothing survives the process, every admitted job runs to
// completion first. If ctx expires first the WAL is left open (the process
// is exiting anyway; the next Open recovers exactly as from a crash).
// Drain may be called again: the WAL is closed once.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.draining)
		if m.opts.Dir != "" {
			for _, r := range m.running {
				r.preempt.Store(true)
			}
		}
	}
	m.mu.Unlock()
	m.sched.Close(m.opts.Dir == "")
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal.Close()
}

// Release finishes a job locally as migrated once the fleet has resubmitted
// it to another backend: a queued job leaves the scheduler and finishes
// immediately; a running job is flagged and finishes as migrated at its
// next slice boundary (the returned Info then still says running). Its
// Collect waiters get ErrPreempted. Releasing an already-migrated job is
// idempotent; other terminal states return ErrTerminal with their final
// Info.
func (m *Manager) Release(id string) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	if j.State == StateMigrated {
		return m.infoLocked(j), nil
	}
	if j.State.Terminal() {
		return m.infoLocked(j), ErrTerminal
	}
	j.migrateOut.Store(true)
	j.cancel.Store(true)
	if j.State == StateQueued && m.sched.Remove(j) {
		m.finishLocked(j, StateMigrated, nil, "")
	}
	return m.infoLocked(j), nil
}

// List returns every known job's Info in submission order; with activeOnly
// set, terminal jobs are skipped. The fleet's rebalance pass uses the
// active list to find jobs whose content key moved after a topology change.
func (m *Manager) List(activeOnly bool) []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		if activeOnly && j.State.Terminal() {
			continue
		}
		out = append(out, m.infoLocked(j))
	}
	return out
}
