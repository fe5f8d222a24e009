package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hwgc"
	"hwgc/internal/sweep"
)

// sweepPointInflight bounds how many points of one sweep the proxy drives
// concurrently. The fleet fans points out across backends by content key, so
// the real parallelism is the backends' runner pools; this only caps the
// proxy's outstanding submissions and result polls.
const sweepPointInflight = 8

// maxSweepResubmits bounds how many times one point's job is resubmitted
// after an owner stopped knowing it — a backend that died before its WAL
// record landed, a migration window, or a direct client's cancellation.
// Submission is idempotent (the job ID is the content key), so a resubmit
// can never duplicate work that still exists anywhere.
const maxSweepResubmits = 16

// sweepRunner is the fleet's sweep.Runner. The proxy's Coordinator expands
// a SweepSpace locally (the same canonical planner the backends use, so the
// sweep ID and every point key are identical fleet-wide); this runner routes
// each point's job to the backend that owns its content key and polls the
// result with failover. The frontier is aggregated at the proxy by the same
// tracker a single gcserved uses, so it is byte-identical to what one
// backend would serve for the same space. Sweeps live in the proxy's
// memory only: the backends' job WALs hold the durable work.
type sweepRunner struct{ f *Fleet }

// Admit passes the class through: the backends own the class set, and a
// class they reject fails each point with their 400.
func (sweepRunner) Admit(_ string, _ []byte, class string) (string, error) { return class, nil }

func (sweepRunner) Cancelled(string) error { return nil }

func (sweepRunner) Persisted() ([]sweep.Persisted, error) { return nil, nil }

func (sweepRunner) Inflight() int { return sweepPointInflight }

// submitPoint sends one point's job to its ring owner. Returns whether the
// submission was freshly accepted (202) as opposed to deduped onto an
// existing job (200).
func (sr sweepRunner) submitPoint(ctx context.Context, class string, p hwgc.SweepPoint) (accepted bool, fatal string, err error) {
	fwd := struct {
		Collect json.RawMessage
		Class   string `json:",omitempty"`
	}{Collect: p.Canonical, Class: class}
	body, err := json.Marshal(fwd)
	if err != nil {
		return false, fmt.Sprintf("encoding point: %v", err), nil
	}
	res, err := sr.f.do(ctx, http.MethodPost, "/v1/jobs", p.Key, body)
	if err != nil {
		return false, "", err
	}
	switch {
	case res.status == http.StatusAccepted, res.status == http.StatusOK:
		// Remember the canonical submission so the elastic rebalance pass
		// can rescue this point from a dead owner, exactly like a directly
		// submitted job.
		sr.f.registry.Record(p.Key, body)
		return res.status == http.StatusAccepted, "", nil
	case res.status >= 400 && res.status < 500:
		return false, fmt.Sprintf("point rejected: status %d: %s", res.status, res.body), nil
	default:
		return false, "", fmt.Errorf("point submit status %d", res.status)
	}
}

// RunPoint submits the point's job to its content-key owner, then polls its
// result with ring failover, resubmitting (bounded) when the current owner
// no longer knows the job.
func (sr sweepRunner) RunPoint(ctx context.Context, class string, index int, p hwgc.SweepPoint) sweep.Result {
	var out sweep.Result
	poll := sr.f.opts.SweepPoll
	accepted, fatal, err := sr.submitPoint(ctx, class, p)
	for err != nil {
		// Transport-level turbulence (all breakers open, fleet restart
		// window): back off on the poll interval and try again until the
		// sweep is cancelled.
		if sr.f.sleep(ctx, poll) != nil {
			return out
		}
		accepted, fatal, err = sr.submitPoint(ctx, class, p)
	}
	if fatal != "" {
		out.Err = fatal
		return out
	}
	if accepted {
		out.Jobs++
	}

	for resubmits := 0; ; {
		if sr.f.sleep(ctx, poll) != nil {
			return out
		}
		res, err := sr.f.do(ctx, http.MethodGet, "/v1/jobs/"+p.Key+"/result", p.Key, nil)
		switch {
		case err == nil && res.status == http.StatusOK:
			var resp hwgc.CollectResponse
			if jerr := json.Unmarshal(res.body, &resp); jerr != nil {
				out.Err = fmt.Sprintf("decoding point result: %v", jerr)
				return out
			}
			out.Outcome = sweep.PointOutcome{Index: index, Key: p.Key, Req: p.Req, Result: resp.Result}
			out.Deduped = !accepted
			return out
		case err == nil && res.status == http.StatusAccepted:
			// Still running on its owner.
		case err == nil && (res.status == http.StatusNotFound || res.status == http.StatusGone):
			// The ring owner does not (or no longer) know the job: it died
			// before the WAL record landed, the job migrated mid-poll, or a
			// direct client cancelled it. Idempotent resubmission re-homes
			// the point on the current owner.
			if resubmits >= maxSweepResubmits {
				out.Err = fmt.Sprintf("point lost after %d resubmits: status %d", resubmits, res.status)
				return out
			}
			resubmits++
			if acc, fatal2, serr := sr.submitPoint(ctx, class, p); serr == nil {
				if fatal2 != "" {
					out.Err = fatal2
					return out
				}
				if acc {
					accepted = true
					out.Jobs++
				}
			}
		case err == nil && res.status == http.StatusBadGateway:
			// The owner answered authoritatively: the job itself failed.
			out.Err = fmt.Sprintf("point failed: %s", res.body)
			return out
		case ctx.Err() != nil:
			return out
			// Everything else — 5xx routing turbulence, ErrNoBackends while
			// breakers cool down, attempt exhaustion — is transient during
			// topology changes; the next poll retries.
		}
	}
}

// cancelRetryTimeouts bounds, in request timeouts, how long a sweep
// point's cancel is retried while its owner gives no answer.
const cancelRetryTimeouts = 3

// CancelJob DELETEs the point's job at its owner under the standard
// retry/failover policy. It runs in its own goroutine, so an owner that
// does not answer holds back no other point's cancel. A lost cancel would
// leave a queued job that later burns a runner, so a DELETE without an
// authoritative answer (cancelled, already terminal, or unknown) is retried
// on the poll interval for up to cancelRetryTimeouts request timeouts, or
// until the fleet closes. A cancel given up is counted in
// gcfleet_exhausted_total.
func (sr sweepRunner) CancelJob(key string) {
	f := sr.f
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), cancelRetryTimeouts*f.opts.Timeout)
		defer cancel()
		go func() {
			select {
			case <-f.stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		for {
			dctx, dcancel := context.WithTimeout(ctx, f.opts.Timeout)
			_, err := f.do(dctx, http.MethodDelete, "/v1/jobs/"+key, key, nil)
			dcancel()
			if err == nil {
				return
			}
			if f.sleep(ctx, f.opts.SweepPoll) != nil {
				f.metrics.exhausted.Add(1)
				return
			}
		}
	}()
}
