package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"hwgc"
	"hwgc/internal/snapshot"
)

// ExportedJob is the portable envelope of one job: everything another
// gcserved needs to continue the job exactly where this one stopped. It is
// the wire format of GET/PUT /v1/jobs/{id}/checkpoint and the unit the
// elastic migration driver ships between backends.
//
// Portability rests on the same two invariants the WAL relies on: the ID is
// the content address of the canonical request (so an import dedupes onto
// any prior submission of the same work), and the snapshot restore contract
// makes a resumed run bit-identical to an uninterrupted one (so a migrated
// job's result matches an unmigrated run byte for byte).
type ExportedJob struct {
	// V is the envelope version; importers reject versions they don't know.
	V    int
	ID   string
	Kind string // KindCollect
	// Class is advisory: the importer maps unknown classes to its default
	// rather than rejecting, since class sets may differ across backends.
	Class   string          `json:",omitempty"`
	Request json.RawMessage // canonical request JSON (the bytes ID hashes)

	// State is the exported position: StateQueued (start from scratch),
	// StateCheckpointed (resume from Snapshot at Cycle), or StateDone
	// (ResultBody is final).
	State State
	Cycle int64 // snapshot cycle (checkpointed only)

	// ResultBody is the final encoded response (done only).
	ResultBody []byte `json:",omitempty"`
	// Snapshot is the S21 machine snapshot of the collection (checkpointed
	// only), integrity-checked by SnapCRC.
	Snapshot []byte `json:",omitempty"`
	SnapCRC  uint32 `json:",omitempty"`
}

// exportVersion is the current envelope version. Version 2 dropped the
// sweep-job fields (Point, Results): every job is one collect.
const exportVersion = 2

// Validate checks the envelope's integrity and internal consistency: the
// version, the kind, the content address, the snapshot checksum and the
// snapshot's structural decodability. A truncated or tampered envelope
// fails here with a clean error instead of corrupting the importing job
// table.
func (e *ExportedJob) Validate() error {
	if e.V != exportVersion {
		return fmt.Errorf("jobs: unsupported export version %d (want %d)", e.V, exportVersion)
	}
	if e.Kind != KindCollect {
		return fmt.Errorf("jobs: export of unknown job kind %q", e.Kind)
	}
	if got := hwgc.KeyBytes(e.Request); got != e.ID {
		return fmt.Errorf("jobs: export ID %s does not match request content key %s", e.ID, got)
	}
	switch e.State {
	case StateQueued:
		if len(e.Snapshot) != 0 {
			return fmt.Errorf("jobs: queued export must not carry a snapshot")
		}
	case StateCheckpointed:
		if len(e.Snapshot) == 0 {
			return fmt.Errorf("jobs: checkpointed export missing its snapshot")
		}
		if crc32.ChecksumIEEE(e.Snapshot) != e.SnapCRC {
			return fmt.Errorf("jobs: export snapshot checksum mismatch (corrupt or truncated)")
		}
		if _, err := snapshot.Decode(e.Snapshot); err != nil {
			return fmt.Errorf("jobs: export snapshot undecodable: %w", err)
		}
	case StateDone:
		if len(e.ResultBody) == 0 {
			return fmt.Errorf("jobs: done export missing its result body")
		}
		if len(e.Snapshot) != 0 {
			return fmt.Errorf("jobs: done export must not carry a snapshot")
		}
	default:
		return fmt.Errorf("jobs: state %q is not exportable", e.State)
	}
	return nil
}

// Export captures a job's current position as a portable envelope without
// losing the job's place locally: queued and checkpointed jobs are held out
// of the scheduler only long enough to read their checkpoint file and are
// re-admitted unchanged, done jobs export their result, and running jobs are
// preempted at their next snapshot boundary first (bounded by one checkpoint
// interval), with ctx bounding the wait. Export never mutates the job — the
// source stays runnable until Release, so a failed migration loses nothing.
func (m *Manager) Export(ctx context.Context, id string) (*ExportedJob, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	// Register as an exporter: when the runner parks this job at a boundary
	// it hands the job to us instead of re-enqueueing it (which an idle
	// runner would otherwise win back before we could).
	j.exporting.Add(1)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if j.exporting.Add(-1) == 0 && j.parked {
			// Last exporter out re-admits a still-parked job (we bailed on
			// ctx before taking it). Enqueue fails only once the scheduler
			// is closed; the WAL then re-admits the job on the next Open.
			j.parked = false
			_ = m.sched.Enqueue(j)
		}
		m.mu.Unlock()
	}()
	for {
		m.mu.Lock()
		switch {
		case j.State == StateDone:
			env := m.envelopeLocked(j)
			env.State = StateDone
			env.ResultBody = append([]byte(nil), j.ResultBody...)
			m.mu.Unlock()
			m.metrics.exports.Add(1)
			return env, nil
		case j.State.Terminal(): // failed, cancelled, migrated
			state := j.State
			m.mu.Unlock()
			return nil, fmt.Errorf("%w (%s)", ErrTerminal, state)
		case (j.State == StateQueued || j.State == StateCheckpointed) && (m.sched.Remove(j) || j.parked):
			// Held out of the scheduler — either we removed it or the runner
			// parked it for us: no runner can dispatch the job (and overwrite
			// or remove its checkpoint) while we read it.
			j.parked = false
			env := m.envelopeLocked(j)
			env.State = StateQueued
			hasCkpt := j.HasCkpt
			m.mu.Unlock()
			if hasCkpt {
				if ck, err := readCheckpoint(m.ckptPath(id)); err == nil {
					env.State = StateCheckpointed
					env.Cycle = ck.Cycle
					env.Snapshot = ck.Snap
					env.SnapCRC = crc32.ChecksumIEEE(ck.Snap)
				}
				// Unreadable or stale: export as queued — determinism means
				// the importer re-runs the job and loses only time, never
				// correctness.
			}
			m.mu.Lock()
			// Enqueue fails only once the scheduler is closed (drain); the
			// WAL still re-admits the job on the next Open.
			_ = m.sched.Enqueue(j)
			m.mu.Unlock()
			m.metrics.exports.Add(1)
			return env, nil
		default:
			// Running (or mid-dispatch, which Remove just missed): ask for a
			// checkpoint-boundary yield and wait for the next lifecycle
			// event. runJob clears the preempt flag as it dispatches, so the
			// flag is re-set on every wakeup — the StateRunning event is
			// emitted after the clear, which makes the re-set stick.
			j.preempt.Store(true)
			ev := j.events
			_, ch := ev.Subscribe() // under m.mu: no missed-transition window
			m.mu.Unlock()
			if ch == nil {
				continue // already terminal; the loop top classifies it
			}
			select {
			case <-ch:
			case <-ctx.Done():
				ev.Unsubscribe(ch)
				return nil, ctx.Err()
			}
			ev.Unsubscribe(ch)
		}
	}
}

// envelopeLocked builds the state-independent part of j's envelope. Callers
// hold m.mu and fill in State plus the state-specific payload.
func (m *Manager) envelopeLocked(j *job) *ExportedJob {
	return &ExportedJob{
		V:       exportVersion,
		ID:      j.ID,
		Kind:    j.Kind,
		Class:   j.Class,
		Request: append(json.RawMessage(nil), j.Req...),
	}
}

// Import adopts a foreign envelope as a local job: the submission and (for
// done jobs) the result are written to the WAL, the shipped
// snapshot becomes a local checkpoint file, and the job is enqueued to
// resume exactly where the exporter stopped. Import is idempotent by content
// key: if any job with the envelope's ID already exists — in any state — the
// existing job's Info is returned with accepted=false and nothing changes,
// so replaying a migration (or racing two of them) cannot duplicate work.
func (m *Manager) Import(env *ExportedJob) (Info, bool, error) {
	if err := env.Validate(); err != nil {
		m.metrics.importsRejected.Add(1)
		return Info{}, false, err
	}
	if m.opts.Dir == "" {
		return Info{}, false, errors.New("jobs: importing a checkpoint needs a jobs directory")
	}
	class := env.Class
	if class == "" || !m.sched.Class(class) {
		// Class sets may differ across backends; adopt into the default
		// class rather than stranding the migration.
		class = m.opts.Classes[0].Name
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Info{}, false, ErrDraining
	}
	if j, ok := m.jobs[env.ID]; ok {
		m.metrics.importsDeduped.Add(1)
		info := m.infoLocked(j)
		m.mu.Unlock()
		return info, false, nil
	}
	now := m.opts.Clock()
	j := &job{
		ID: env.ID, Kind: env.Kind, Class: class,
		Req:   append(json.RawMessage(nil), env.Request...),
		State: StateQueued, Submitted: now,
		events: newEventLog(m.opts.Clock), async: true,
	}
	if err := m.wal.Append(walRecord{Type: recSubmit, ID: j.ID, Kind: j.Kind, Class: j.Class, Request: j.Req, At: now}); err != nil {
		m.mu.Unlock()
		return Info{}, false, err
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	// WAL append errors below are tolerated like runJob's: the in-memory job
	// still runs, and determinism makes post-crash re-execution safe.
	var notify func()
	switch env.State {
	case StateDone:
		j.State = StateDone
		j.ResultBody = append([]byte(nil), env.ResultBody...)
		j.Finished = now
		_ = m.wal.Append(walRecord{Type: recResult, ID: j.ID, State: StateDone, Body: j.ResultBody, At: now})
		m.metrics.completed.Add(1)
		if cb := m.opts.OnResult; cb != nil {
			id, body := j.ID, j.ResultBody
			notify = func() { cb(id, body, nil) }
		}
	case StateCheckpointed:
		if err := writeCheckpoint(m.ckptPath(j.ID), checkpoint{Cycle: env.Cycle, Snap: env.Snapshot}); err == nil {
			j.State = StateCheckpointed
			j.Cycle = env.Cycle
			j.HasCkpt = true
			m.metrics.checkpoints.Add(1)
			_ = m.wal.Append(walRecord{Type: recState, ID: j.ID, State: StateCheckpointed, Cycle: j.Cycle, At: now})
		}
		// On write failure the job stays queued: it restarts from scratch,
		// losing time but not correctness.
	case StateQueued:
		// Nothing beyond the submission.
	}
	if !j.State.Terminal() {
		if err := m.sched.Enqueue(j); err != nil {
			m.mu.Unlock()
			return Info{}, false, err
		}
	}
	m.metrics.imports.Add(1)
	j.emit(j.State, j.Cycle, "")
	info := m.infoLocked(j)
	m.mu.Unlock()
	if notify != nil {
		notify()
	}
	return info, true, nil
}

// Release finishes a job locally as migrated, after its envelope has been
// verifiably imported elsewhere: queued and checkpointed jobs leave the
// scheduler and finish immediately; running jobs are flagged and finish as
// migrated at their next checkpoint boundary (the returned Info then still
// says running). Releasing an already-migrated job is idempotent; other
// terminal states return ErrTerminal with their final Info.
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
	if (j.State == StateQueued || j.State == StateCheckpointed) && m.sched.Remove(j) {
		m.finishLocked(j, StateMigrated, nil, "")
	}
	return m.infoLocked(j), nil
}

// List returns every known job's Info in submission order; with activeOnly
// set, terminal jobs are skipped. The migration driver uses the active list
// to find jobs whose content key moved after a topology change.
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
