package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwgc"
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
)

// Internal control-flow sentinels for the runner loop.
var (
	errPreempted = errors.New("jobs: preempted at checkpoint boundary")
	errCancelled = errors.New("jobs: cancelled")
)

// Options configures a Manager.
type Options struct {
	// Dir is the durable jobs directory: the WAL and per-job checkpoint
	// files live here. Required.
	Dir string
	// Classes is the priority class set; empty selects DefaultClasses.
	Classes []ClassConfig
	// Runners is the number of concurrent job runners (default 2).
	Runners int
	// CheckpointCycles is the slice length: how many simulated cycles a job
	// runs between checkpoint boundaries (default 200000).
	CheckpointCycles int64
	// RetainTerminal bounds how many terminal jobs (and their result
	// bodies) survive WAL compaction at startup (default 1024).
	RetainTerminal int
	// Aging is the scheduler's anti-starvation bonus per losing pick;
	// non-positive selects the default.
	Aging float64
	// OnResult, when set, is called (outside manager locks) with every
	// completed job's ID and encoded result body — gcserved uses it to
	// populate the synchronous result cache.
	OnResult func(id string, body []byte)
	// CheckpointHook, when set, is called after every checkpoint save with
	// no locks held; tests use it to make preemption and crashes
	// deterministic.
	CheckpointHook func(id string)
	// Clock overrides time.Now for Info timestamps (tests).
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Runners <= 0 {
		o.Runners = 2
	}
	if o.CheckpointCycles <= 0 {
		o.CheckpointCycles = 200_000
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
// request block are guarded by Manager.mu except the two atomic flags, which
// the runner polls at checkpoint boundaries without taking the lock.
type job struct {
	ID    string
	Kind  string // KindCollect or KindSweep
	Class string
	Req   json.RawMessage // canonical request JSON (the bytes the ID hashes)

	State       State
	Point       int // completed sweep points (0 for an unstarted job)
	Points      int // total points (1 for collect)
	Cycle       int64
	Preemptions int64
	ErrMsg      string
	ResultBody  []byte
	Results     []hwgc.RunResult // completed sweep point results, in order
	Submitted   time.Time
	Started     time.Time
	Finished    time.Time
	HasCkpt     bool // a checkpoint file exists for the current point

	preempt    atomic.Bool  // yield at the next checkpoint boundary
	cancel     atomic.Bool  // cancel at the next checkpoint boundary
	migrateOut atomic.Bool  // a cancel is a migration handoff, not a user cancel
	exporting  atomic.Int32 // exporters waiting for a checkpoint-boundary park
	parked     bool         // held out of sched for an exporter (guarded by m.mu)
	events     *eventLog
}

// Manager owns the job table, the WAL, the scheduler and the runner pool.
type Manager struct {
	opts    Options
	sched   *Scheduler
	metrics *Metrics

	mu       sync.Mutex
	wal      *WAL
	jobs     map[string]*job
	order    []string    // job IDs in submission order (compaction retention)
	aux      []AuxRecord // auxiliary subsystem records, in append order
	running  map[string]*job
	closed   bool
	draining chan struct{}
	wg       sync.WaitGroup
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

// runCtx carries per-dispatch bookkeeping through the runner's call chain.
type runCtx struct {
	dispatched time.Time
	fresh      bool // no prior progress at dispatch
	observed   bool // time-to-first-checkpoint already recorded
}

// Open replays the WAL in opts.Dir, sweeps the checkpoint directory, adopts
// resumable work, compacts the log, and starts the runner pool. Jobs that
// were queued or checkpointed when the previous process died are re-admitted
// exactly where they left off.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobs: Options.Dir is required")
	}
	if len(opts.Classes) == 0 {
		cs, err := ParseClasses(DefaultClasses)
		if err != nil {
			return nil, err
		}
		opts.Classes = cs
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	sched, err := NewScheduler(opts.Classes, opts.Aging)
	if err != nil {
		return nil, err
	}
	metrics := NewMetrics(sched.Depths)
	wal, recs, err := OpenWAL(opts.Dir, metrics)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		opts:     opts,
		sched:    sched,
		metrics:  metrics,
		wal:      wal,
		jobs:     make(map[string]*job),
		running:  make(map[string]*job),
		draining: make(chan struct{}),
	}
	if err := m.recover(recs); err != nil {
		wal.Close()
		return nil, err
	}
	for i := 0; i < opts.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// countPoints returns how many collection points a canonical request runs.
func countPoints(kind string, req json.RawMessage) (int, error) {
	switch kind {
	case KindCollect:
		return 1, nil
	case KindSweep:
		var sr hwgc.SweepRequest
		if err := json.Unmarshal(req, &sr); err != nil {
			return 0, err
		}
		if len(sr.Cores) == 0 || len(sr.Cores) > hwgc.MaxSweepPoints {
			return 0, fmt.Errorf("jobs: sweep request has %d points", len(sr.Cores))
		}
		return len(sr.Cores), nil
	default:
		return 0, fmt.Errorf("jobs: unknown kind %q", kind)
	}
}

// recover rebuilds the job table from replayed WAL records, reconciles it
// with the on-disk checkpoints, compacts the log and re-admits unfinished
// work.
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
			points, err := countPoints(rec.Kind, rec.Request)
			if err != nil {
				return fmt.Errorf("jobs: WAL job %s: %w", rec.ID, err)
			}
			j := &job{
				ID: rec.ID, Kind: rec.Kind, Class: class, Req: rec.Request,
				State: StateQueued, Points: points, Submitted: rec.At,
				events: newEventLog(m.opts.Clock),
			}
			m.jobs[rec.ID] = j
			m.order = append(m.order, rec.ID)
		case recState:
			j := m.jobs[rec.ID]
			if j == nil {
				return fmt.Errorf("jobs: WAL transition for unknown job %s", rec.ID)
			}
			switch rec.State {
			case StateRunning:
				j.State = StateRunning
				if j.Started.IsZero() {
					j.Started = rec.At
				}
			case StateCheckpointed:
				j.State = StateCheckpointed
				j.Cycle = rec.Cycle
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
			j := m.jobs[rec.ID]
			if j == nil {
				return fmt.Errorf("jobs: WAL point for unknown job %s", rec.ID)
			}
			if rec.Point != len(j.Results) {
				return fmt.Errorf("jobs: WAL job %s: point %d out of order (have %d)", rec.ID, rec.Point, len(j.Results))
			}
			var res hwgc.RunResult
			if err := json.Unmarshal(rec.Result, &res); err != nil {
				return fmt.Errorf("jobs: WAL job %s point %d: %w", rec.ID, rec.Point, err)
			}
			j.Results = append(j.Results, res)
			j.Point = len(j.Results)
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
	// A job that was running when the process died restarts from its newest
	// checkpoint (adopted below) or, failing that, from scratch — results
	// are deterministic either way, so no duplicate execution is visible.
	for _, j := range m.jobs {
		if j.State == StateRunning {
			j.State = StateQueued
		}
	}
	if err := m.sweepCheckpoints(); err != nil {
		return err
	}
	if err := m.compact(len(recs) > 0); err != nil {
		return err
	}
	// Re-admit unfinished work: queued jobs first (FIFO by submission),
	// then checkpointed jobs in reverse order so front-insertion restores
	// their original relative order ahead of the queued ones.
	for _, id := range m.order {
		if j := m.jobs[id]; j.State == StateQueued {
			if err := m.sched.Enqueue(j); err != nil {
				return err
			}
		}
	}
	for i := len(m.order) - 1; i >= 0; i-- {
		if j := m.jobs[m.order[i]]; j.State == StateCheckpointed {
			if err := m.sched.Enqueue(j); err != nil {
				return err
			}
		}
	}
	for _, id := range m.order {
		j := m.jobs[id]
		j.events.emit(j.State, j.Point, j.Cycle, j.ErrMsg)
	}
	return nil
}

// sweepCheckpoints reconciles the checkpoint directory with the job table:
// files for unknown or terminal jobs, unreadable files, stale files (from an
// already-completed sweep point) and leftover temp files are reclaimed;
// valid files promote their job to the checkpointed state for resume.
func (m *Manager) sweepCheckpoints() error {
	entries, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".ckpt-") || strings.HasPrefix(name, ".wal-") {
			// Temp file orphaned by a crash mid-rename.
			os.Remove(filepath.Join(m.opts.Dir, name))
			m.metrics.ckptReclaims.Add(1)
			continue
		}
		if !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		path := filepath.Join(m.opts.Dir, name)
		id := strings.TrimSuffix(name, ckptSuffix)
		j := m.jobs[id]
		if j == nil || j.State.Terminal() {
			os.Remove(path)
			m.metrics.ckptReclaims.Add(1)
			continue
		}
		ck, err := readCheckpoint(path)
		if err != nil || ck.Point != j.Point {
			os.Remove(path)
			m.metrics.ckptReclaims.Add(1)
			continue
		}
		j.State = StateCheckpointed
		j.Cycle = ck.Cycle
		j.HasCkpt = true
	}
	return nil
}

// compact drops the oldest terminal jobs beyond the retention bound and,
// when rewrite is set (the replayed log was non-empty), rewrites the WAL to
// exactly the surviving table — bounding log growth across restarts.
func (m *Manager) compact(rewrite bool) error {
	var terminal []string
	for _, id := range m.order {
		if m.jobs[id].State.Terminal() {
			terminal = append(terminal, id)
		}
	}
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
		if j.State != StateDone {
			// Completed sweep points still matter for resume (and for
			// reviving failed/cancelled sweeps); a done job only needs its
			// result.
			for i, res := range j.Results {
				b, err := json.Marshal(res)
				if err != nil {
					return err
				}
				recs = append(recs, walRecord{Type: recPoint, ID: j.ID, Point: i, Result: b})
			}
		}
		switch j.State {
		case StateQueued: // implied by recSubmit
		case StateCheckpointed:
			recs = append(recs, walRecord{Type: recState, ID: j.ID, State: StateCheckpointed, Point: j.Point, Cycle: j.Cycle, At: j.Started})
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

// Submit registers a job for the canonical request bytes and returns its
// Info. The job ID is the content address of the request (hwgc.KeyBytes), so
// resubmitting the same request dedupes onto the existing job (accepted is
// false and the live Info is returned). Failed and cancelled jobs are
// revived by resubmission, keeping any completed sweep points.
func (m *Manager) Submit(kind, class string, canonical []byte) (Info, bool, error) {
	switch kind {
	case KindCollect, KindSweep:
	default:
		return Info{}, false, fmt.Errorf("jobs: unknown kind %q", kind)
	}
	if class == "" {
		class = m.opts.Classes[0].Name
	}
	if !m.sched.Class(class) {
		return Info{}, false, fmt.Errorf("jobs: unknown class %q", class)
	}
	id := hwgc.KeyBytes(canonical)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Info{}, false, ErrDraining
	}
	j, ok := m.jobs[id]
	switch {
	case ok && (j.State == StateFailed || j.State == StateCancelled || j.State == StateMigrated):
		// Revive (for migrated jobs: the work moved away but a client asked
		// this backend again, so it runs here afresh — determinism makes the
		// duplicate execution harmless). The class sticks to the original
		// submission.
		now := m.opts.Clock()
		if err := m.wal.Append(walRecord{Type: recState, ID: id, State: StateQueued, At: now}); err != nil {
			m.mu.Unlock()
			return Info{}, false, err
		}
		j.State = StateQueued
		j.ErrMsg = ""
		j.Finished = time.Time{}
		j.cancel.Store(false)
		j.migrateOut.Store(false)
		j.events = newEventLog(m.opts.Clock)
		if err := m.sched.Enqueue(j); err != nil {
			m.mu.Unlock()
			return Info{}, false, err
		}
		m.metrics.submitted.Add(1)
		j.events.emit(StateQueued, j.Point, 0, "")
	case ok:
		m.metrics.deduped.Add(1)
		info := m.infoLocked(j)
		m.mu.Unlock()
		return info, false, nil
	default:
		now := m.opts.Clock()
		points, err := countPoints(kind, canonical)
		if err != nil {
			m.mu.Unlock()
			return Info{}, false, err
		}
		j = &job{
			ID: id, Kind: kind, Class: class, Req: append([]byte(nil), canonical...),
			State: StateQueued, Points: points, Submitted: now,
			events: newEventLog(m.opts.Clock),
		}
		if err := m.wal.Append(walRecord{Type: recSubmit, ID: id, Kind: kind, Class: class, Request: j.Req, At: now}); err != nil {
			m.mu.Unlock()
			return Info{}, false, err
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
		if err := m.sched.Enqueue(j); err != nil {
			m.mu.Unlock()
			return Info{}, false, err
		}
		m.metrics.submitted.Add(1)
		j.events.emit(StateQueued, 0, 0, "")
	}
	info := m.infoLocked(j)
	m.mu.Unlock()
	m.maybePreempt(class)
	return info, true, nil
}

// maybePreempt flags the weakest running job for a checkpoint-boundary yield
// when work of strictly higher weight is waiting and no runner is idle. The
// strict inequality means equal-priority jobs never thrash each other.
func (m *Manager) maybePreempt(class string) {
	w := m.sched.Weight(class)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.running) < m.opts.Runners || m.sched.Backlog() == 0 {
		return
	}
	var victim *job
	vw := w
	for _, j := range m.running {
		if j.preempt.Load() {
			continue
		}
		if jw := m.sched.Weight(j.Class); jw < vw {
			victim, vw = j, jw
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
	if j.cancel.Load() {
		m.finishLocked(j, cancelOutcome(j), nil, "")
		m.mu.Unlock()
		return
	}
	j.preempt.Store(false)
	now := m.opts.Clock()
	rcx := &runCtx{dispatched: now, fresh: j.Point == 0 && !j.HasCkpt}
	j.State = StateRunning
	if j.Started.IsZero() {
		j.Started = now
	}
	if rcx.fresh {
		m.metrics.freshStarts.Add(1)
	} else {
		m.metrics.resumes.Add(1)
	}
	_ = m.wal.Append(walRecord{Type: recState, ID: j.ID, State: StateRunning, Point: j.Point, At: now})
	m.running[j.ID] = j
	m.metrics.running.Add(1)
	j.events.emit(StateRunning, j.Point, j.Cycle, "")
	m.mu.Unlock()

	body, err := m.execute(j, rcx)

	m.mu.Lock()
	delete(m.running, j.ID)
	m.metrics.running.Add(-1)
	var notify func()
	switch {
	case err == nil:
		m.finishLocked(j, StateDone, body, "")
		if cb := m.opts.OnResult; cb != nil {
			id := j.ID
			notify = func() { cb(id, body) }
		}
	case errors.Is(err, errCancelled):
		m.finishLocked(j, cancelOutcome(j), nil, "")
	case errors.Is(err, errPreempted):
		j.State = StateCheckpointed
		j.Preemptions++
		m.metrics.preemptions.Add(1)
		_ = m.wal.Append(walRecord{Type: recState, ID: j.ID, State: StateCheckpointed, Point: j.Point, Cycle: j.Cycle, At: m.opts.Clock()})
		j.events.emit(StateCheckpointed, j.Point, j.Cycle, "")
		if j.exporting.Load() > 0 {
			// An Export is waiting for exactly this park: hand the job over
			// instead of racing it back into the scheduler, where an idle
			// runner would re-dispatch it before the exporter could grab it.
			// The exporter re-admits the job once its envelope is captured.
			j.parked = true
		} else {
			// Enqueue fails only once the scheduler is closed (drain); the
			// WAL record above re-admits the job on the next Open.
			_ = m.sched.Enqueue(j)
		}
	default:
		m.finishLocked(j, StateFailed, nil, err.Error())
	}
	m.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// cancelOutcome maps a cancelled job to its terminal state: a cancel raised
// by Release is a migration handoff, not a user cancellation.
func cancelOutcome(j *job) State {
	if j.migrateOut.Load() {
		return StateMigrated
	}
	return StateCancelled
}

// finishLocked moves j to a terminal state, persists the transition, removes
// its checkpoint file and emits the terminal event. Callers hold m.mu. WAL
// append errors are tolerated here: the in-memory state still serves, and
// determinism makes re-execution after a restart safe.
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
		default:
			m.metrics.cancelled.Add(1)
		}
	}
	if j.HasCkpt {
		j.HasCkpt = false
		os.Remove(m.ckptPath(j.ID))
	}
	j.events.emit(state, j.Point, j.Cycle, errMsg)
}

func (m *Manager) execute(j *job, rcx *runCtx) ([]byte, error) {
	if j.Kind == KindCollect {
		return m.executeCollect(j, rcx)
	}
	return m.executeSweep(j, rcx)
}

func (m *Manager) executeCollect(j *job, rcx *runCtx) ([]byte, error) {
	var req hwgc.CollectRequest
	if err := json.Unmarshal(j.Req, &req); err != nil {
		return nil, err
	}
	rc, err := m.startOrResume(j, req, 0)
	if err != nil {
		return nil, err
	}
	if err := m.stepPoint(j, rc, 0, rcx); err != nil {
		return nil, err
	}
	resp, err := rc.Response()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (m *Manager) executeSweep(j *job, rcx *runCtx) ([]byte, error) {
	var sr hwgc.SweepRequest
	if err := json.Unmarshal(j.Req, &sr); err != nil {
		return nil, err
	}
	m.mu.Lock()
	start := j.Point
	results := append([]hwgc.RunResult(nil), j.Results...)
	m.mu.Unlock()
	for point := start; point < len(sr.Cores); point++ {
		if point > start {
			// Between-points boundary: a natural checkpoint with no
			// snapshot needed — resume restarts at this point index.
			if j.cancel.Load() {
				return nil, errCancelled
			}
			if m.drainingNow() || j.preempt.Load() {
				return nil, errPreempted
			}
		}
		creq := hwgc.CollectRequest{Bench: sr.Bench, Scale: sr.Scale, Seed: sr.Seed, Config: sr.Config, Verify: sr.Verify}
		creq.Config.Cores = sr.Cores[point]
		rc, err := m.startOrResume(j, creq, point)
		if err != nil {
			return nil, err
		}
		if err := m.stepPoint(j, rc, point, rcx); err != nil {
			return nil, err
		}
		resp, err := rc.Response()
		if err != nil {
			return nil, err
		}
		resJSON, err := json.Marshal(resp.Result)
		if err != nil {
			return nil, err
		}
		results = append(results, resp.Result)
		m.mu.Lock()
		j.Results = append(j.Results, resp.Result)
		j.Point = len(j.Results)
		j.Cycle = 0
		removeCkpt := j.HasCkpt
		j.HasCkpt = false
		_ = m.wal.Append(walRecord{Type: recPoint, ID: j.ID, Point: point, Result: resJSON, At: m.opts.Clock()})
		if point < len(sr.Cores)-1 {
			j.events.emit(StateRunning, j.Point, 0, "")
		}
		m.mu.Unlock()
		if removeCkpt {
			os.Remove(m.ckptPath(j.ID))
		}
	}
	resp := hwgc.SweepResponse{Key: j.ID, Bench: sr.Bench, Cores: sr.Cores, Scale: sr.Scale, Seed: sr.Seed, Results: results}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// startOrResume resumes the given point from the job's on-disk checkpoint
// when one is valid for it, reclaiming the file otherwise, and falls back to
// a fresh start.
func (m *Manager) startOrResume(j *job, req hwgc.CollectRequest, point int) (*hwgc.RequestCollection, error) {
	m.mu.Lock()
	has := j.HasCkpt
	m.mu.Unlock()
	if has {
		path := m.ckptPath(j.ID)
		ck, err := readCheckpoint(path)
		if err == nil && ck.Point == point {
			if rc, err := hwgc.ResumeCollectRequest(req, ck.Snap); err == nil {
				return rc, nil
			}
		}
		// Unreadable, stale or mismatched: reclaim and restart the point
		// from scratch — deterministic, so only time is lost.
		os.Remove(path)
		m.metrics.ckptReclaims.Add(1)
		m.mu.Lock()
		j.HasCkpt = false
		j.Cycle = 0
		m.mu.Unlock()
	}
	return hwgc.StartCollectRequest(req)
}

// stepPoint drives one collection point checkpoint to checkpoint until it
// completes (nil), fails, or must yield (errCancelled / errPreempted). Every
// executed slice is charged to the job's class for fair-share accounting.
func (m *Manager) stepPoint(j *job, rc *hwgc.RequestCollection, point int, rcx *runCtx) error {
	for {
		done, err := rc.StepCycles(m.opts.CheckpointCycles)
		if err != nil {
			return err
		}
		m.sched.Charge(j.Class)
		if done {
			return nil
		}
		snap, err := rc.Snapshot()
		if err != nil {
			return err
		}
		cyc := rc.Cycle()
		if err := writeCheckpoint(m.ckptPath(j.ID), checkpoint{Point: point, Cycle: cyc, Snap: snap}); err != nil {
			return err
		}
		m.mu.Lock()
		j.HasCkpt = true
		j.Cycle = cyc
		m.mu.Unlock()
		m.metrics.checkpoints.Add(1)
		if rcx.fresh && !rcx.observed {
			rcx.observed = true
			m.metrics.firstCkpt.Observe(m.opts.Clock().Sub(rcx.dispatched))
		}
		if hook := m.opts.CheckpointHook; hook != nil {
			hook(j.ID)
		}
		if j.cancel.Load() {
			return errCancelled
		}
		if m.drainingNow() || j.preempt.Load() {
			return errPreempted
		}
	}
}

func (m *Manager) drainingNow() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

func (m *Manager) infoLocked(j *job) Info {
	return Info{
		ID: j.ID, Kind: j.Kind, Class: j.Class, State: j.State,
		Point: j.Point, Points: j.Points, Cycle: j.Cycle,
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

// Cancel cancels a job: queued and checkpointed jobs are removed from the
// scheduler and cancelled immediately; running jobs are flagged and yield at
// their next checkpoint boundary (the returned Info then still says
// running). Terminal jobs return ErrTerminal with their final Info.
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
	if (j.State == StateQueued || j.State == StateCheckpointed) && m.sched.Remove(j) {
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
	history, ch := ev.subscribe()
	return history, ch, func() { ev.unsubscribe(ch) }, nil
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

// Metrics returns the manager's counter set.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// DefaultClass returns the class submissions get when they name none.
func (m *Manager) DefaultClass() string { return m.opts.Classes[0].Name }

// HasClass reports whether name is a configured class.
func (m *Manager) HasClass(name string) bool { return m.sched.Class(name) }

// Drain stops accepting submissions, lets every runner yield at its next
// checkpoint boundary, and closes the WAL. Queued-but-unstarted jobs stay
// queued in the WAL and are re-admitted on the next Open; running jobs are
// checkpointed and resume on restart with byte-identical results. If ctx
// expires first the WAL is left open (the process is exiting anyway; the
// next Open recovers exactly as from a crash).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	first := !m.closed
	m.closed = true
	m.mu.Unlock()
	if first {
		close(m.draining)
	}
	m.sched.Close()
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
