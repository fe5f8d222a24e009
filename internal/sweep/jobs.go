package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"hwgc"
	"hwgc/internal/jobs"
)

// auxSweepTag and auxCancelTag are the jobs-WAL aux record tags a
// JobsRunner persists sweep lifecycle under: one "sweep" record per
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

// JobsRunner is gcserved's Runner: it satisfies points from the serving
// tier's result cache, or submits them as jobs on a local jobs.Manager and
// watches their terminal transitions. Sweep submissions and cancellations
// ride the jobs WAL as aux records, so Recover rebuilds mid-flight sweeps
// after a crash without re-running completed points (their jobs dedupe by
// content key against the recovered job table and result cache).
type JobsRunner struct {
	jobs   *jobs.Manager
	lookup func(key string) ([]byte, bool)
}

// NewJobsRunner returns a Runner executing points on m. lookup, when
// non-nil, consults the result cache before a point is submitted; a hit
// completes the point at once, marked deduped.
func NewJobsRunner(m *jobs.Manager, lookup func(key string) ([]byte, bool)) *JobsRunner {
	return &JobsRunner{jobs: m, lookup: lookup}
}

// Admit defaults and checks the class, then fsyncs the sweep's aux record.
func (r *JobsRunner) Admit(id string, canonical []byte, class string) (string, error) {
	if class == "" {
		class = r.jobs.DefaultClass()
	}
	if !r.jobs.HasClass(class) {
		return "", fmt.Errorf("sweep: unknown class %q", class)
	}
	payload, err := json.Marshal(auxSweep{Space: canonical, Class: class})
	if err != nil {
		return "", err
	}
	return class, r.jobs.AppendAux(auxSweepTag, id, payload)
}

// Cancelled fsyncs the sweep's cancel record.
func (r *JobsRunner) Cancelled(id string) error { return r.jobs.AppendAux(auxCancelTag, id, nil) }

// Persisted replays the aux records. A class the manager no longer has
// falls back to the default class.
func (r *JobsRunner) Persisted() ([]Persisted, error) {
	var out []Persisted
	index := make(map[string]int)
	for _, a := range r.jobs.AuxRecords("") {
		switch a.Tag {
		case auxSweepTag:
			if _, dup := index[a.ID]; dup {
				continue
			}
			var ax auxSweep
			if err := json.Unmarshal(a.Payload, &ax); err != nil {
				return nil, fmt.Errorf("sweep: aux record %s: %w", a.ID, err)
			}
			sp, err := hwgc.DecodeSweepSpace(bytes.NewReader(ax.Space))
			if err != nil {
				return nil, fmt.Errorf("sweep: aux record %s: %w", a.ID, err)
			}
			class := ax.Class
			if class == "" || !r.jobs.HasClass(class) {
				class = r.jobs.DefaultClass()
			}
			index[a.ID] = len(out)
			out = append(out, Persisted{ID: a.ID, Space: sp, Class: class})
		case auxCancelTag:
			if i, ok := index[a.ID]; ok {
				out[i].Cancelled = true
			}
		}
	}
	return out, nil
}

// Inflight is 0: every point is submitted at once, and the manager's
// runner pool and priority scheduler bound the execution.
func (r *JobsRunner) Inflight() int { return 0 }

// RunPoint satisfies the point from the cache, or submits its job and
// waits for a terminal state. A job cancelled by someone else or migrated
// to another backend is revived, since the sweep still wants the result
// here (determinism makes duplicate execution harmless); the revivals are
// bounded to rule out a livelock against a client cancelling in a loop.
func (r *JobsRunner) RunPoint(ctx context.Context, class string, index int, p hwgc.SweepPoint) Result {
	var res Result
	for attempt := 1; ; attempt++ {
		if r.lookup != nil {
			if body, ok := r.lookup(p.Key); ok {
				if outcome, err := decodeOutcome(index, p, body); err == nil {
					res.Outcome, res.Deduped = outcome, true
					return res
				}
				// An undecodable cache body falls through to a fresh execution.
			}
		}
		_, accepted, err := r.jobs.Submit(class, p.Canonical)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		if accepted {
			res.Jobs++
		}
		state, errMsg, ok := r.awaitTerminal(ctx, p.Key)
		if !ok {
			return res
		}
		switch state {
		case jobs.StateDone:
			body, _, err := r.jobs.Result(p.Key)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			outcome, err := decodeOutcome(index, p, body)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			res.Outcome, res.Deduped = outcome, !accepted
			return res
		case jobs.StateFailed:
			res.Err = errMsg
			return res
		}
		if ctx.Err() != nil {
			return res // this sweep's own cancel
		}
		if attempt >= maxPointResubmits {
			res.Err = fmt.Sprintf("sweep: point job %s after %d resubmits", state, attempt)
			return res
		}
	}
}

// CancelJob cancels the point's job; ErrTerminal and ErrNotFound are fine.
func (r *JobsRunner) CancelJob(key string) { _, _ = r.jobs.Cancel(key) }

// decodeOutcome parses a point's encoded CollectResponse body.
func decodeOutcome(index int, p hwgc.SweepPoint, body []byte) (PointOutcome, error) {
	var resp hwgc.CollectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return PointOutcome{}, err
	}
	return PointOutcome{Index: index, Key: p.Key, Req: p.Req, Result: resp.Result}, nil
}

// awaitTerminal blocks until the job reaches a terminal state, ctx is done
// (ok=false), or the job disappears (treated as cancelled, which triggers a
// resubmit). Terminal events can be dropped by a full subscriber buffer
// (the channel still closes), so a closed channel re-checks the job table
// before concluding anything.
func (r *JobsRunner) awaitTerminal(ctx context.Context, key string) (state jobs.State, errMsg string, ok bool) {
	for {
		history, ch, stopSub, err := r.jobs.Subscribe(key)
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
			if info, err := r.jobs.Get(key); err == nil && info.State.Terminal() {
				return info.State, info.Error, true
			}
			return jobs.StateCancelled, "", true
		}
		closed := false
		for !closed {
			select {
			case <-ctx.Done():
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
		if info, err := r.jobs.Get(key); err == nil && info.State.Terminal() {
			return info.State, info.Error, true
		}
		// A revival raced the close; subscribe to the fresh event log.
	}
}
