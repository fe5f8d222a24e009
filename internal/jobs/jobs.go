// Package jobs implements gcjobs, gcserved's one scheduler: every collect
// the server runs — a synchronous /v1/collect miss (Manager.Collect), a
// sweep or batch point, or a /v1/jobs submission — is a job of one Manager,
// whose runner pool is the server's only pool. Without a directory the
// Manager runs in memory (no WAL). With one it is the durable asynchronous
// job subsystem behind the /v1/jobs endpoints, which turns the synchronous
// serving tier into one that can accept work it cannot finish immediately:
// a write-ahead log (append-only, CRC-framed like internal/snapshot)
// persists every submission, result and terminal transition, a scheduler
// shares the runner pool across priority classes with weighted fair
// queuing and anti-starvation aging, and in both modes long-running
// collections yield at slice boundaries when higher-priority work is
// waiting, so a long collection no longer blocks a one-shot collect.
//
// Durability rests on determinism, not on snapshots: a job is durable
// through its WAL submit record, and after a crash, a drain or a move to
// another backend it re-runs from its request with a byte-identical result.
// A job that yields to another one keeps its live collection in memory and
// continues from it; at most Runners collections are parked at once.
//
// The design carries the paper's synchronization discipline to the job
// level: the uncontended path is free (a lone job runs slice to slice
// without ever being interrupted), contention is bounded (a preempted job
// loses no work: its collection is parked, not discarded), and every stall
// is accounted for (per-class queue depth, preemption and WAL fsync
// metrics).
//
// Job lifecycle:
//
//	queued -> running -> done | failed | cancelled | migrated
//	  ^          |
//	  +----------+    (preemption at a slice boundary; drain; crash)
//
// Submissions are idempotent: the job ID is the content address of the
// canonical request (hwgc.KeyBytes), so resubmitting a request — or
// replaying a submission from the WAL after a crash — dedupes onto the
// same job and the same result.
package jobs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hwgc"
	"hwgc/internal/events"
)

// State is a job's position in its lifecycle.
type State string

// The job states, in lifecycle order. Migrated means "resubmitted to
// another backend and released here" — terminal locally, but the job lives
// on elsewhere. Checkpointed is no state a job takes any more: older
// versions wrote it to the WAL for a preempted job, and replay reads it as
// queued.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
	StateCancelled    State = "cancelled"
	StateMigrated     State = "migrated"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateMigrated
}

// KindCollect is the kind of every job: one collection. Core sweeps run as
// one collect job per point (POST /v1/sweep, /v1/sweeps). A WAL written
// before sweeps ran that way may still hold "sweep" jobs: a finished one
// keeps serving its stored body until retention compaction drops it, and
// an unfinished one is failed when the WAL is replayed.
const KindCollect = "collect"

// SubmitRequest is the POST /v1/jobs body on both serving tiers: one
// collect plus an optional priority class (default: the first configured
// class). Sweep is decoded only so that a sweep body is answered with
// ErrSweepJob instead of an unknown-field error.
type SubmitRequest struct {
	Collect *hwgc.CollectRequest `json:",omitempty"`
	Sweep   *hwgc.SweepRequest   `json:",omitempty"`
	Class   string               `json:",omitempty"`
}

// ErrSweepJob rejects a POST /v1/jobs body that carries a core sweep.
var ErrSweepJob = errors.New("sweep jobs are not supported: POST a core sweep to /v1/sweep, or a SweepSpace to /v1/sweeps; both run each point as a collect job")

// Canonical canonicalizes the body's collect in place and returns its
// canonical bytes. An error is the 400 message both tiers answer with.
func (r *SubmitRequest) Canonical() ([]byte, error) {
	switch {
	case r.Sweep != nil:
		return nil, ErrSweepJob
	case r.Collect == nil:
		return nil, errors.New("Collect must be set")
	}
	canonical, err := r.Collect.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("invalid request: %w", err)
	}
	return canonical, nil
}

// ClassConfig names one priority class and its fair-share weight. A class
// with weight w receives w shares of runner time while backlogged, and its
// jobs preempt running jobs of strictly lower-weight classes at their next
// slice boundary.
type ClassConfig struct {
	Name   string
	Weight int
}

// DefaultClasses is the class set used when none is configured: interactive
// work outweighs (and preempts) batch work 8:1. The first class is the
// default for submissions that do not name one.
const DefaultClasses = "interactive:8,batch:1"

// ParseClasses parses a "name:weight,name:weight" class specification.
// Names must be unique, non-empty and metric-label safe; weights positive.
func ParseClasses(spec string) ([]ClassConfig, error) {
	if spec == "" {
		spec = DefaultClasses
	}
	var out []ClassConfig
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("jobs: class %q: want name:weight", part)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("jobs: class %q: empty name", part)
		}
		for _, r := range name {
			if !(r == '-' || r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				return nil, fmt.Errorf("jobs: class name %q: only letters, digits, - and _ allowed", name)
			}
		}
		if seen[name] {
			return nil, fmt.Errorf("jobs: duplicate class %q", name)
		}
		seen[name] = true
		w, err := strconv.Atoi(strings.TrimSpace(weightStr))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("jobs: class %q: weight must be a positive integer", part)
		}
		out = append(out, ClassConfig{Name: name, Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("jobs: class spec %q names no classes", spec)
	}
	return out, nil
}

// Info is the externally visible snapshot of one job, served as JSON by
// GET /v1/jobs/{id} and embedded in submit responses and SSE events.
type Info struct {
	ID    string
	Kind  string // KindCollect ("sweep" only for a job replayed from an old WAL)
	Class string
	State State
	// Cycle is the clock cycle the job's collection reached at its newest
	// slice boundary (0 before the first one, and after a restart, from
	// which the job re-runs).
	Cycle int64
	// Preemptions counts how many times this job yielded at a slice
	// boundary.
	Preemptions int64
	Error       string    `json:",omitempty"`
	Submitted   time.Time `json:",omitempty"`
	Started     time.Time `json:",omitempty"` // first dispatch
	Finished    time.Time `json:",omitempty"` // terminal transition
}

// Event is one job lifecycle notification, streamed over SSE by
// GET /v1/jobs/{id}/events.
type Event struct {
	Seq   int64
	Time  time.Time
	State State
	Cycle int64
	Error string `json:",omitempty"`
}

// Stamped and Frame make Event an events.Event: the SSE event name is the
// state, and a terminal state ends the stream.
func (ev Event) Stamped(seq int64, at time.Time) Event {
	ev.Seq, ev.Time = seq, at
	return ev
}

func (ev Event) Frame() (int64, string, bool) { return ev.Seq, string(ev.State), ev.State.Terminal() }

// newEventLog returns a job's event log. The history is bounded: a job
// emits one event per transition, so 256 events comfortably cover
// pathological preemption storms. A subscriber (a stalled SSE client) that
// falls 32 events behind loses events rather than blocking the runner; the
// WAL is the record.
func newEventLog() *events.Log[Event] {
	return events.NewLog[Event](256, 32)
}
