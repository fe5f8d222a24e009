package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"hwgc/internal/jobs"
	"hwgc/internal/stats"
)

// A rebalance pass moves jobs after the backend set changes — a backend
// joins, is removed, or its circuit breaker opens — to the backend their
// content key now routes to. A job moves by resubmission, not by shipping
// its state: jobs are content-keyed and deterministic, so the new owner
// re-runs the job from its canonical submit body (kept in the fleet's
// registry) to a byte-identical result.
//
// The pass applies the paper's synchronization discipline at fleet
// granularity. The uncontended path is free: a topology change moves only
// the minimal-remap fraction of keys (~1/N for one of N backends), and a
// job whose owner did not change is never touched. Contention is bounded:
// a moved job loses the work its old owner had done, never its answer.
// And every move is accounted for (jobs moved, rescued, failed; latency).
//
// Zero-loss ordering: a job is released on its source only after its new
// owner has accepted the resubmission. A failure at any step leaves the
// job runnable somewhere, and because submissions dedupe by content key,
// replaying a pass (or racing two) cannot duplicate work. A job whose body
// the registry no longer holds stays and finishes where it runs. When a
// source is dead, its registry jobs are resubmitted to their new owner by
// the rescue step.

// remapSampleKeys is the deterministic key sample used to measure how much
// of the key space a topology change remapped.
const remapSampleKeys = 1024

// remapFraction measures the fraction of a deterministic key sample whose
// primary owner differs between two rings. Minimal remap makes this ~1/N
// when one of N members changes; a naive mod-N scheme would score ~1.
func remapFraction(old, cur *Ring) float64 {
	if old == nil || cur == nil {
		return 0
	}
	moved := 0
	for i := 0; i < remapSampleKeys; i++ {
		k := fmt.Sprintf("sample-%d", i)
		if old.Owner(k) != cur.Owner(k) {
			moved++
		}
	}
	return float64(moved) / remapSampleKeys
}

// Report summarizes one rebalance pass; it is the POST /v1/admin/rebalance
// response.
type Report struct {
	Scanned     int // active jobs listed across backends
	Moved       int // jobs resubmitted to their new owner and released at the source
	Resubmitted int // registry jobs no backend listed, resubmitted to their owner
	Failed      int // listings, moves or rescues that failed this pass
}

// rebalanceMetrics is the rebalance pass's counter set, written as
// gcelastic_* series in gcfleet's /metrics scrape: every job displaced by a
// topology change is attributable to a move, a rescue or a failure
// awaiting the next pass.
type rebalanceMetrics struct {
	stats.Registry

	rebalances      *stats.Int
	jobsMigrated    *stats.Int // jobs moved to their new owner
	jobsResubmitted *stats.Int // jobs rescued via registry resubmission
	failed          *stats.Int // moves or rescues that failed a pass
	keysRemapped    *stats.Float
	latency         *stats.Summary
}

func newRebalanceMetrics() *rebalanceMetrics {
	m := &rebalanceMetrics{}
	r := &m.Registry
	// The families and their help text are published as they were when
	// jobs moved by checkpoint transfer; a move is a resubmission now.
	m.rebalances = r.Counter("gcelastic_rebalances_total", "Migration passes run after topology changes.")
	m.jobsMigrated = r.Counter("gcelastic_jobs_migrated_total", "Jobs moved between backends by checkpoint transfer.")
	m.jobsResubmitted = r.Counter("gcelastic_jobs_resubmitted_total", "Jobs rescued by registry resubmission after their owner died.")
	m.failed = r.Counter("gcelastic_migrations_failed_total", "Migrations or rescues that failed a pass.")
	m.keysRemapped = r.FloatGauge("gcelastic_keys_remapped_fraction", "Fraction of sampled keys whose owner changed in the last topology change.")
	m.latency = r.Summary("gcelastic_migration_seconds", "Per-job migration latency, export to release (upper-bound quantile estimates).", 0.5, 0.99)
	return m
}

// passBackend is one backend as a rebalance pass sees it.
type passBackend struct {
	id, url string
	// admissible means the backend takes requests right now (breaker not
	// open). Inadmissible backends are never destinations; they are still
	// listed as sources, since their API may answer with the breaker open.
	admissible bool
	// removed means the backend has left the ring: a source, never a
	// destination.
	removed bool
}

// rebalancePlan is one pass's view of the fleet: the backends, the owners
// of a key in failover order, and the registry of submit bodies.
type rebalancePlan struct {
	backends []passBackend
	replicas func(key string) []string
	registry map[string][]byte
}

// buildPlan snapshots the fleet for one pass: every live and removed
// backend with its admissibility, an immutable ring capture for owner
// lookups, and a copy of the submission registry. The pass then runs
// entirely against the snapshot — a concurrent membership change simply
// triggers its own later pass.
func (f *Fleet) buildPlan() rebalancePlan {
	f.mu.RLock()
	ring := f.ring
	backs := make([]passBackend, 0, len(f.backends)+len(f.removed))
	for _, id := range ring.Members() {
		b := f.backends[id]
		backs = append(backs, passBackend{id: b.id, url: b.baseURL, admissible: b.breaker.State() != BreakerOpen})
	}
	for _, b := range f.removed {
		backs = append(backs, passBackend{id: b.id, url: b.baseURL, admissible: b.breaker.State() != BreakerOpen, removed: true})
	}
	f.mu.RUnlock()
	sort.Slice(backs, func(i, j int) bool { return backs[i].id < backs[j].id })
	replicas := f.opts.Replicas
	return rebalancePlan{
		backends: backs,
		replicas: func(key string) []string { return ring.Lookup(key, replicas) },
		registry: f.registry.Snapshot(),
	}
}

// Rebalance runs one synchronous pass over the current topology and
// returns its report. Passes are serialized; a pass that fails partway is
// safe to re-run. After a clean pass the drained removed backends are
// forgotten; a pass with failures retains them as sources for the next.
func (f *Fleet) Rebalance(ctx context.Context) Report {
	f.rebalanceMu.Lock()
	defer f.rebalanceMu.Unlock()
	rep := rebalance(ctx, f.client, f.emetrics, f.buildPlan())
	if rep.Failed == 0 {
		f.mu.Lock()
		f.removed = make(map[string]*Backend)
		f.mu.Unlock()
	}
	return rep
}

// goRebalance kicks an asynchronous pass. Topology changes and
// breaker-open transitions use it; POST /v1/admin/rebalance runs a
// synchronous pass instead so callers (and tests) get the report back.
func (f *Fleet) goRebalance() {
	select {
	case <-f.stop:
		return
	default:
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		timeout := 2 * time.Minute
		if f.opts.Timeout > timeout {
			timeout = f.opts.Timeout
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		f.Rebalance(ctx)
	}()
}

// rebalance runs one pass over p: every active job whose content key routes
// to a different live owner and whose body the registry holds is
// resubmitted there and released at its source, and registry jobs that no
// backend listed are resubmitted to their owner. A second pass over the
// same topology finds nothing to move.
func rebalance(ctx context.Context, client *http.Client, met *rebalanceMetrics, p rebalancePlan) Report {
	var rep Report
	met.rebalances.Add(1)
	fail := func(format string, args ...any) {
		rep.Failed++
		met.failed.Add(1)
		log.Printf("rebalance: "+format, args...)
	}
	dests := make(map[string]passBackend)
	for _, b := range p.backends {
		if b.admissible && !b.removed {
			dests[b.id] = b
		}
	}
	ownerFor := func(key string) string {
		for _, id := range p.replicas(key) {
			if _, ok := dests[id]; ok {
				return id
			}
		}
		return ""
	}
	seen := make(map[string]bool)
	for _, src := range p.backends {
		var list struct{ Jobs []jobs.Info }
		if err := getJSON(ctx, client, src.url+"/v1/jobs?active=true", &list); err != nil {
			// Counted, so the fleet keeps this source for the next pass
			// instead of forgetting a possibly undrained one.
			fail("listing jobs on %s: %v", src.id, err)
			continue
		}
		for _, info := range list.Jobs {
			seen[info.ID] = true
			rep.Scanned++
			owner := ownerFor(info.ID)
			body, known := p.registry[info.ID]
			if owner == "" || owner == src.id || !known {
				continue
			}
			start := time.Now()
			if err := submitJob(ctx, client, dests[owner].url, body); err != nil {
				fail("moving job %s from %s to %s: %v", shortID(info.ID), src.id, owner, err)
				continue
			}
			// The new owner has the job: releasing the source cannot lose
			// it any more. A failed release leaves it running in both
			// places until the next pass, which is harmless.
			if err := releaseJob(ctx, client, src.url, info.ID); err != nil {
				log.Printf("rebalance: releasing job %s on %s: %v", shortID(info.ID), src.id, err)
			}
			rep.Moved++
			met.jobsMigrated.Add(1)
			met.latency.Observe(time.Since(start))
			log.Printf("rebalance: moved job %s: %s -> %s", shortID(info.ID), src.id, owner)
		}
	}
	// Rescue: registry jobs no backend listed (their owner died) restart
	// from scratch on the new owner.
	ids := make([]string, 0, len(p.registry))
	for id := range p.registry {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		owner := ownerFor(id)
		if owner == "" || jobKnown(ctx, client, dests[owner].url, id) {
			continue // no live owner, or already done or adopted there
		}
		if err := submitJob(ctx, client, dests[owner].url, p.registry[id]); err != nil {
			fail("resubmitting job %s to %s: %v", shortID(id), owner, err)
			continue
		}
		rep.Resubmitted++
		met.jobsResubmitted.Add(1)
		log.Printf("rebalance: resubmitted job %s to %s (source dead)", shortID(id), owner)
	}
	return rep
}

// call sends one bodyless or JSON request outside the fleet's routing (no
// retries, no per-backend accounting) and returns the status and body.
func call(ctx context.Context, client *http.Client, method, u string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON GETs u and decodes the 200 response into v.
func getJSON(ctx context.Context, client *http.Client, u string, v any) error {
	code, data, err := call(ctx, client, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%d: %s", code, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// submitJob POSTs a canonical submit body to base's /v1/jobs.
func submitJob(ctx context.Context, client *http.Client, base string, body []byte) error {
	code, data, err := call(ctx, client, http.MethodPost, base+"/v1/jobs", body)
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: %d: %s", code, strings.TrimSpace(string(data)))
	}
	return err
}

// releaseJob ends a job at base as migrated. A job that is gone or already
// terminal there has nothing left to release.
func releaseJob(ctx context.Context, client *http.Client, base, id string) error {
	code, data, err := call(ctx, client, http.MethodDelete, base+"/v1/jobs/"+url.PathEscape(id)+"/checkpoint", nil)
	if err == nil && code != http.StatusOK && code != http.StatusNotFound && code != http.StatusConflict {
		err = fmt.Errorf("release: %d: %s", code, strings.TrimSpace(string(data)))
	}
	return err
}

// jobKnown reports whether base already knows the job (any state).
func jobKnown(ctx context.Context, client *http.Client, base, id string) bool {
	code, _, err := call(ctx, client, http.MethodGet, base+"/v1/jobs/"+url.PathEscape(id), nil)
	return err == nil && code == http.StatusOK
}

// shortID abbreviates a job ID for log lines.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
