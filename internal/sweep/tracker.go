package sweep

import (
	"context"
	"encoding/json"
	"time"

	"hwgc"
	"hwgc/internal/events"
)

// Sweep states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
)

// pointStatus is one point's position in its sweep.
type pointStatus uint8

const (
	pointPending pointStatus = iota
	pointDone
	pointFailed
	pointCancelled
)

// Info is a sweep's public progress snapshot, served by GET /v1/sweeps/{id}.
type Info struct {
	ID            string
	State         string
	Objective     string
	Class         string `json:",omitempty"`
	Points        int
	Completed     int
	Failed        int
	Cancelled     int
	Deduped       int
	JobsSubmitted int
	Frontier      []FrontierEntry `json:",omitempty"`
	Submitted     time.Time
	Finished      time.Time `json:",omitempty"`
}

// tracker holds one sweep's runner-agnostic state: the planned points,
// per-point status, running counters, the current frontier, and the event
// log. The Coordinator drives it through its Complete/Fail/CancelPoint
// transitions; the tracker recomputes the frontier and detects the finish.
// ID, Space, Class and Points never change, Events locks itself and stop
// is safe to call from any goroutine; everything else must be used under
// the Coordinator's lock, which already serializes transitions with
// sweep-table lookups.
type tracker struct {
	ID        string
	Space     *hwgc.SweepSpace
	Class     string
	Points    []hwgc.SweepPoint
	Events    *events.Log[Event]
	State     string
	Submitted time.Time
	Finished  time.Time
	stop      context.CancelFunc // cancels the sweep's runner context

	status          []pointStatus
	outcomes        []PointOutcome // completed outcomes, append order
	failed          int
	cancelledPts    int
	deduped         int
	jobsSub         int
	errs            []string // first few point errors, for Info/debugging
	frontier        []FrontierEntry
	frontierJSON    []byte
	cancelRequested bool

	metrics *Metrics
}

// newTracker registers a freshly planned sweep: counters start at zero, the
// "planned" event is emitted, and the active gauge rises.
func newTracker(id string, space *hwgc.SweepSpace, class string, points []hwgc.SweepPoint, m *Metrics) *tracker {
	t := &tracker{
		ID: id, Space: space, Class: class, Points: points,
		State: StateRunning, Events: newEventLog(),
		Submitted: time.Now(), status: make([]pointStatus, len(points)),
		metrics: m,
	}
	m.sweepsSubmitted.Add(1)
	m.sweepsActive.Add(1)
	m.pointsPlanned.Add(int64(len(points)))
	t.Events.Emit(Event{Type: "planned", Points: len(points)})
	return t
}

// NoteJobsSubmitted records n fresh job executions spawned by a point.
func (t *tracker) NoteJobsSubmitted(n int) { t.jobsSub += n }

// Terminal reports whether the sweep has finished.
func (t *tracker) Terminal() bool { return t.State != StateRunning }

// PointPending reports whether the point at index still awaits a terminal
// transition.
func (t *tracker) PointPending(index int) bool {
	return index >= 0 && index < len(t.status) && t.status[index] == pointPending
}

// PendingKeys returns the content keys of every still-pending point.
func (t *tracker) PendingKeys() []string {
	var keys []string
	for i, st := range t.status {
		if st == pointPending {
			keys = append(keys, t.Points[i].Key)
		}
	}
	return keys
}

// MarkCancelRequested records a DELETE so the terminal state becomes
// cancelled once the outstanding points settle.
func (t *tracker) MarkCancelRequested() { t.cancelRequested = true }

// CompletePoint transitions the point at index to done with its outcome.
// deduped marks a completion satisfied without a new execution (result
// cache hit or coalesce onto an existing job's result).
func (t *tracker) CompletePoint(index int, outcome PointOutcome, deduped bool) {
	if !t.PointPending(index) {
		return
	}
	t.status[index] = pointDone
	t.outcomes = append(t.outcomes, outcome)
	t.metrics.pointsCompleted.Add(1)
	if deduped {
		t.deduped++
		t.metrics.pointsDeduped.Add(1)
	}
	t.Events.Emit(Event{
		Type: "point", Key: outcome.Key, Index: index, State: "done", Deduped: deduped,
		Points: len(t.Points), Completed: len(t.outcomes), Failed: t.failed, Cancelled: t.cancelledPts,
	})
	t.refreshFrontier()
	t.maybeFinish()
}

// FailPoint transitions the point at index to failed.
func (t *tracker) FailPoint(index int, errMsg string) {
	if !t.PointPending(index) {
		return
	}
	t.status[index] = pointFailed
	t.failed++
	t.metrics.pointsFailed.Add(1)
	if len(t.errs) < 8 {
		t.errs = append(t.errs, errMsg)
	}
	t.Events.Emit(Event{
		Type: "point", Key: t.Points[index].Key, Index: index, State: "failed", Error: errMsg,
		Points: len(t.Points), Completed: len(t.outcomes), Failed: t.failed, Cancelled: t.cancelledPts,
	})
	t.maybeFinish()
}

// CancelPoint transitions the point at index to cancelled.
func (t *tracker) CancelPoint(index int) {
	if !t.PointPending(index) {
		return
	}
	t.status[index] = pointCancelled
	t.cancelledPts++
	t.metrics.pointsCancelled.Add(1)
	t.Events.Emit(Event{
		Type: "point", Key: t.Points[index].Key, Index: index, State: "cancelled",
		Points: len(t.Points), Completed: len(t.outcomes), Failed: t.failed, Cancelled: t.cancelledPts,
	})
	t.maybeFinish()
}

// refreshFrontier recomputes the ranking and emits a frontier event when it
// changed. Encoded-bytes comparison makes "changed" exact: a completion
// that does not alter the ranking stays silent.
func (t *tracker) refreshFrontier() {
	fr := Frontier(t.Space.Objective, t.Space.TopK, t.outcomes)
	b, err := json.Marshal(fr)
	if err != nil {
		return // unreachable: FrontierEntry marshals cleanly
	}
	if string(b) == string(t.frontierJSON) {
		return
	}
	t.frontier = fr
	t.frontierJSON = b
	t.metrics.frontierUpdates.Add(1)
	t.Events.Emit(Event{
		Type: "frontier", Frontier: fr,
		Points: len(t.Points), Completed: len(t.outcomes), Failed: t.failed, Cancelled: t.cancelledPts,
	})
}

// maybeFinish closes the sweep once every point is terminal.
func (t *tracker) maybeFinish() {
	if t.State != StateRunning {
		return
	}
	for _, st := range t.status {
		if st == pointPending {
			return
		}
	}
	t.Finished = time.Now()
	typ := StateDone
	if t.cancelRequested {
		typ = StateCancelled
		t.metrics.sweepsCancelled.Add(1)
	} else {
		t.metrics.sweepsCompleted.Add(1)
	}
	t.State = typ
	t.metrics.sweepsActive.Add(-1)
	t.metrics.latency.Observe(t.Finished.Sub(t.Submitted))
	t.Events.Emit(Event{
		Type: typ, Frontier: t.frontier,
		Points: len(t.Points), Completed: len(t.outcomes), Failed: t.failed, Cancelled: t.cancelledPts,
	})
}

// Frontier returns the current ranking.
func (t *tracker) Frontier() []FrontierEntry {
	return append([]FrontierEntry(nil), t.frontier...)
}

// FrontierJSON returns the current ranking's canonical encoding.
func (t *tracker) FrontierJSON() []byte {
	return append([]byte(nil), t.frontierJSON...)
}

// Info returns the sweep's progress snapshot.
func (t *tracker) Info() Info {
	return Info{
		ID: t.ID, State: t.State, Objective: t.Space.Objective, Class: t.Class,
		Points: len(t.Points), Completed: len(t.outcomes), Failed: t.failed,
		Cancelled: t.cancelledPts, Deduped: t.deduped, JobsSubmitted: t.jobsSub,
		Frontier:  append([]FrontierEntry(nil), t.frontier...),
		Submitted: t.Submitted, Finished: t.Finished,
	}
}
