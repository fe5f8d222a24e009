// Package cluster implements gcfleet, the sharded multi-backend serving
// tier in front of N gcserved instances. It exposes the exact same HTTP
// API as one gcserved and adds:
//
//   - cache-affine routing: a consistent-hash ring over the canonical
//     request content key (hwgc.KeyBytes), so identical requests always
//     land on the backend whose LRU cache already holds the result;
//   - health-checked failover: per-backend /healthz probing feeding a
//     three-state circuit breaker (closed/open/half-open) with automatic
//     re-admission;
//   - a retry policy that honors Retry-After on 429, applies capped
//     exponential backoff with jitter on 5xx/transport errors, and fails
//     over to the next ring replica; every attempt is one send, never a
//     duplicate racing another;
//   - scatter-gather batching (POST /v1/batch) with bounded per-backend
//     concurrency and per-item partial-failure reporting;
//   - async job routing (/v1/jobs*): submissions and by-id lookups hash to
//     the same ring owner as the equivalent synchronous request (the job ID
//     is the content key), including a streaming SSE pass-through for
//     /v1/jobs/{id}/events;
//   - parameter-space sweeps (/v1/sweeps*): the proxy plans a SweepSpace
//     with the same canonical expansion the backends use, routes every
//     point's job to its cache-owning backend by content key, and
//     aggregates the ranked frontier locally — byte-identical to what a
//     single backend would serve for the same space;
//   - core sweeps (/v1/sweep and batch sweep items) as their collect
//     points: each point is routed to its own collect-key owner and the
//     reply is assembled at the fleet, byte-identical to one gcserved's;
//   - an edge result cache for collects (/v1/collect and sweep points): a
//     key's terminal 200 reply is stored at the fleet on its second
//     sighting, and later requests for it are answered with no backend
//     exchange;
//   - fleet-level Prometheus metrics on /metrics.
//
// The design follows the paper's synchronization discipline at fleet
// scale: the common case (a fleet-edge hit) is contention-free, every
// stall has an accounted cause (breaker opens, failovers, retries),
// and overload is an explicit bounded rejection, never an invisible convoy.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/frontdoor"
	"hwgc/internal/sweep"
)

// Options configures a Fleet. Zero values select the defaults.
type Options struct {
	// Backends are the gcserved base URLs (e.g. http://10.0.0.1:8080).
	Backends []string
	// Replicas is the failover width: how many distinct backends, in ring
	// order, may serve one key (default 3; the ring caps it at the live
	// member count, which elastic membership changes at runtime).
	Replicas int
	// MaxAttempts bounds the total HTTP sends for one request (default 4).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the capped exponential backoff with
	// jitter applied between retries of 5xx/transport failures (defaults
	// 25ms and 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HealthInterval is the /healthz probe period (default 2s; negative
	// disables probing).
	HealthInterval time.Duration
	// BreakerThreshold consecutive failures open a backend's breaker
	// (default 3); BreakerCooldown is the open→half-open delay (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BatchInflight bounds concurrent in-flight batch items per backend
	// (default 4).
	BatchInflight int
	// Timeout is the per-request (and per-batch-item) deadline (default 60s).
	Timeout time.Duration
	// SweepPoll is the per-point result poll interval of the fleet sweep
	// runner (default 250ms; tests shrink it).
	SweepPoll time.Duration
	// CacheEntries / CacheBytes bound the edge result cache for collects
	// (/v1/collect and sweep points), as on gcserved (defaults 1024 entries
	// and 64 MiB); a negative value disables it.
	CacheEntries int
	CacheBytes   int64
}

// retryAfterCap bounds how long the fleet honors a backend's Retry-After
// hint before retrying anyway.
const retryAfterCap = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.BatchInflight <= 0 {
		o.BatchInflight = 4
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.SweepPoll <= 0 {
		o.SweepPoll = 250 * time.Millisecond
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	return o
}

// Errors the routing layer reports when no backend could serve a request.
var (
	// ErrNoBackends: every replica's breaker refused admission.
	ErrNoBackends = errors.New("cluster: no admissible backend (all breakers open)")
	// ErrExhausted: the attempt budget ran out without a terminal reply.
	ErrExhausted = errors.New("cluster: attempts exhausted")
)

// Errors the membership layer reports on admin topology changes.
var (
	// ErrAdmission: a joining backend failed its health-gated admission probe.
	ErrAdmission = errors.New("cluster: admission probe failed")
	// ErrDuplicate: the backend URL is already a fleet member.
	ErrDuplicate = errors.New("cluster: backend already in the fleet")
	// ErrUnknownBackend: the id names no current ring member.
	ErrUnknownBackend = errors.New("cluster: unknown backend")
	// ErrLastBackend: refusing to remove the fleet's only backend.
	ErrLastBackend = errors.New("cluster: cannot remove the last backend")
)

// Fleet is the coordinator: a hash ring of backends, per-backend breakers
// and counters, fleet metrics, and the HTTP front end.
type Fleet struct {
	opts    Options
	client  *http.Client
	metrics *Metrics
	mux     *http.ServeMux

	mu       sync.RWMutex // guards ring, backends, removed and nextIdx
	ring     *Ring
	backends map[string]*Backend
	removed  map[string]*Backend // left the ring; retained as rebalance sources
	nextIdx  int                 // monotonic backend index so re-adds get fresh IDs

	edge       *edgeCache // nil when disabled
	memo       *bodyMemo  // raw /v1/collect body -> key; nil with edge
	replyLimit int64      // largest backend reply body relayed (tests shrink it)

	registry *jobRegistry       // canonical submit bodies, for job moves and rescue
	emetrics *rebalanceMetrics  // gcelastic_* counters, appended to /metrics
	sweeps   *sweep.Coordinator // proxy-side sweep planner/aggregator

	rebalanceMu sync.Mutex // serializes rebalance passes

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	// sleep is the context-aware sleep used by backoff and Retry-After
	// waits; tests substitute it to make retry schedules instantaneous.
	sleep func(ctx context.Context, d time.Duration) error
}

// New validates opts and builds a Fleet. Call Start to begin health
// probing; the handler works without Start (breakers then trip only on
// live traffic).
func New(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one backend")
	}
	f := &Fleet{
		opts:       opts,
		backends:   make(map[string]*Backend, len(opts.Backends)),
		removed:    make(map[string]*Backend),
		nextIdx:    len(opts.Backends),
		edge:       newEdgeCache(opts.CacheEntries, opts.CacheBytes),
		replyLimit: maxProxyBodyBytes,
		registry:   newJobRegistry(),
		emetrics:   newRebalanceMetrics(),
		stop:       make(chan struct{}),
		sleep:      sleepCtx,
	}
	if f.edge != nil {
		f.memo = newBodyMemo(opts.CacheEntries)
	}
	f.metrics = NewMetrics(f.Backends, func() int64 {
		if f.edge == nil {
			return 0
		}
		return f.edge.Bytes()
	})
	ids := make([]string, 0, len(opts.Backends))
	for i, raw := range opts.Backends {
		b, err := newBackend(i, raw, opts.BreakerThreshold, opts.BreakerCooldown, opts.BatchInflight)
		if err != nil {
			return nil, err
		}
		if _, dup := f.backends[b.id]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b.baseURL)
		}
		f.backends[b.id] = b
		ids = append(ids, b.id)
	}
	ring, err := NewRing(ids, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	f.ring = ring
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
	f.sweeps = sweep.New(sweepRunner{f})
	// A /v1/sweep or batch point is routed to its own owner, under that
	// owner's semaphore: the front door adds no bound of its own.
	door := &frontdoor.Door{
		RunPoint:     f.runPoint,
		WriteFailure: f.writeFailure,
		ItemStatus:   f.itemStatus,
		Timeout:      opts.Timeout,
		OnBatch: func(resp *hwgc.BatchResponse) {
			f.metrics.batchRequests.Add(1)
			f.metrics.batchItems.Add(int64(len(resp.Items)))
			f.metrics.batchFailed.Add(int64(resp.Failed))
		},
	}
	sweeps := &frontdoor.Sweeps{Coord: f.sweeps, Stop: f.stop}
	f.mux = http.NewServeMux()
	f.mux.HandleFunc("/v1/collect", f.handleCollect)
	f.mux.HandleFunc("/v1/sweep", door.Sweep)
	f.mux.HandleFunc("/v1/batch", door.Batch)
	f.mux.HandleFunc("/v1/jobs", f.handleJobs)
	f.mux.HandleFunc("/v1/jobs/", f.handleJobByID)
	f.mux.HandleFunc("/v1/sweeps", sweeps.Submit)
	f.mux.HandleFunc("/v1/sweeps/", sweeps.ByID)
	f.mux.HandleFunc("/v1/workloads", f.handleWorkloads)
	f.mux.HandleFunc("/v1/admin/backends", f.handleAdminBackends)
	f.mux.HandleFunc("/v1/admin/backends/", f.handleAdminBackendByID)
	f.mux.HandleFunc("/v1/admin/topology", f.handleAdminTopology)
	f.mux.HandleFunc("/v1/admin/rebalance", f.handleAdminRebalance)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	return f, nil
}

// Start launches the health-check loop. Idempotent.
func (f *Fleet) Start() {
	f.startOnce.Do(func() {
		if f.opts.HealthInterval < 0 {
			return
		}
		f.wg.Add(1)
		go f.healthLoop()
	})
}

// Close stops the health loop and the sweep point drivers and waits for
// both.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.sweeps.Close()
	f.wg.Wait()
}

// Handler returns the fleet's HTTP handler.
func (f *Fleet) Handler() http.Handler { return f.mux }

// Backends returns the backends in ring-member order.
func (f *Fleet) Backends() []*Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Backend, 0, len(f.backends))
	for _, id := range f.ring.Members() {
		out = append(out, f.backends[id])
	}
	return out
}

// AddBackend joins a new gcserved to the fleet at runtime. Admission is
// health-gated: the candidate is probed first and enters the ring only
// after a successful probe, so a typo'd URL or a dead process never takes
// traffic. It returns the new backend and the fraction of sampled keys
// whose owner changed (~1/(N+1) when the Nth+1 member joins, by minimal
// remap). The caller is expected to kick a rebalance pass so jobs whose key
// now routes to the newcomer move there.
func (f *Fleet) AddBackend(raw string) (*Backend, float64, error) {
	f.mu.Lock()
	idx := f.nextIdx
	f.nextIdx++
	f.mu.Unlock()
	b, err := newBackend(idx, raw, f.opts.BreakerThreshold, f.opts.BreakerCooldown, f.opts.BatchInflight)
	if err != nil {
		return nil, 0, err
	}
	if ok, perr := f.probe(b); !ok {
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrAdmission, b.baseURL, perr)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ex := range f.backends {
		if ex.baseURL == b.baseURL {
			return nil, 0, fmt.Errorf("%w: %s is %s", ErrDuplicate, b.baseURL, ex.id)
		}
	}
	ring, err := f.ring.With(b.id)
	if err != nil {
		return nil, 0, err
	}
	frac := remapFraction(f.ring, ring)
	f.ring = ring
	f.backends[b.id] = b
	f.metrics.backendsAdded.Add(1)
	f.emetrics.keysRemapped.Set(frac)
	return b, frac, nil
}

// RemoveBackend removes a backend from the ring (operator membership
// change, as opposed to a breaker trip which keeps ring ownership stable).
// The remaining backends deterministically inherit only the removed
// member's keys. The backend object is retained, marked removed, as a
// rebalance source until a clean rebalance pass drains it; it
// takes no further probes, routing, or metric attribution. Returns the
// fraction of sampled keys whose owner changed.
func (f *Fleet) RemoveBackend(id string) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.backends[id]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownBackend, id)
	}
	if len(f.backends) == 1 {
		return 0, ErrLastBackend
	}
	ring, err := f.ring.Remove(id)
	if err != nil {
		return 0, err
	}
	frac := remapFraction(f.ring, ring)
	f.ring = ring
	delete(f.backends, id)
	b.removed.Store(true)
	f.removed[id] = b
	f.metrics.backendsRemoved.Add(1)
	f.emetrics.keysRemapped.Set(frac)
	return frac, nil
}

// replicasFor returns the key's failover order as live *Backend pointers.
func (f *Fleet) replicasFor(key string) []*Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ids := f.ring.Lookup(key, f.opts.Replicas)
	out := make([]*Backend, 0, len(ids))
	for _, id := range ids {
		if b, ok := f.backends[id]; ok {
			out = append(out, b)
		}
	}
	return out
}

// sendResult is one HTTP exchange outcome.
type sendResult struct {
	backend *Backend
	status  int
	header  http.Header
	body    []byte
	err     error
}

// send performs one exchange against b with the given HTTP method and
// accounts for it on b and in the fleet metrics.
func (f *Fleet) send(ctx context.Context, b *Backend, method, path string, body []byte) sendResult {
	b.requests.Add(1)
	status, header, data, err := exchange(ctx, f.client, method, b.baseURL+path, body, f.replyLimit)
	if status != 0 {
		f.metrics.exchanges.With(b.id, strconv.Itoa(status)).Add(1)
	}
	if err != nil {
		return sendResult{backend: b, err: err}
	}
	return sendResult{backend: b, status: status, header: header, body: data}
}

// exchange sends one request to u and reads a reply body of at most limit
// bytes. It is the fleet's one request/response path: routed sends, health
// probes and the rebalance pass all go through it. A transport error
// returns status 0; a reply over the limit returns its status with
// errReplyTooLarge and no body, so the status can still be counted.
func exchange(ctx context.Context, client *http.Client, method, u string, body []byte, limit int64) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	// One byte past the limit tells a reply at the limit from a longer one.
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if int64(len(data)) > limit {
		return resp.StatusCode, nil, nil, fmt.Errorf("%w (%d bytes)", errReplyTooLarge, limit)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// maxProxyBodyBytes bounds a proxied response body (64 MiB is far above
// any real reply).
const maxProxyBodyBytes = 64 << 20

// errReplyTooLarge fails an exchange whose reply body exceeds the proxy
// limit: relaying a truncated body as a 200 would be a wrong answer.
var errReplyTooLarge = errors.New("cluster: backend reply exceeds the proxy body limit")

// terminal classifies an exchange outcome: true means return it to the
// caller as-is (2xx, 3xx and non-429 4xx — the backend answered
// authoritatively — or an oversized reply, which every deterministic
// replica would repeat), false means retry/failover (transport error, 5xx,
// 429).
func terminal(r sendResult) bool {
	if r.err != nil {
		return errors.Is(r.err, errReplyTooLarge)
	}
	return r.status < 500 && r.status != http.StatusTooManyRequests
}

// do routes one request for key across the ring replicas under the retry
// policy. It returns the terminal result, or the last observed result plus
// a routing error when every attempt failed. Retried methods must be
// idempotent on the backend — true for everything the fleet proxies:
// simulations are deterministic and content-addressed, job submission
// dedupes on the content key, and cancellation of an already-terminal job
// is an authoritative 409.
func (f *Fleet) do(ctx context.Context, method, path, key string, body []byte) (sendResult, error) {
	replicas := f.replicasFor(key)
	if len(replicas) == 0 {
		return sendResult{}, ErrNoBackends
	}
	replicas[0].routed.Add(1)
	f.metrics.routed.With(replicas[0].id).Add(1)

	var (
		last       sendResult // zero until the first send
		sends      int
		retryAfter time.Duration
	)
	for sends < f.opts.MaxAttempts {
		admitted := false
		for _, b := range replicas {
			if sends >= f.opts.MaxAttempts {
				break
			}
			// A backend that left the ring since replicas was captured
			// takes no further sends.
			if b.Removed() || !b.breaker.Allow() {
				continue
			}
			admitted = true
			if sends > 0 {
				f.metrics.retries.Add(1)
			}
			if b != replicas[0] {
				// Any send that leaves the key's primary ring owner is a
				// failover — whether a prior send failed or the primary's
				// open breaker kept it from being tried at all.
				f.metrics.failovers.Add(1)
			}
			sends++
			start := time.Now()
			res := f.send(ctx, b, method, path, body)
			f.metrics.latency.Observe(time.Since(start))
			last = res
			switch {
			case b.Removed():
				// b left the ring while this send was in flight: settle its
				// breaker slot with no verdict and charge it nothing. A
				// terminal reply is still the answer.
				b.breaker.Cancel()
				if terminal(res) {
					return res, res.err
				}
			case terminal(res):
				b.breaker.Record(true)
				return res, res.err
			case res.status == http.StatusTooManyRequests:
				// Deliberate backpressure: the backend is alive, just
				// busy. Honor its Retry-After before the next round.
				b.breaker.Record(true)
				if ra := parseRetryAfter(res.header, time.Second); ra > retryAfter {
					retryAfter = ra
				}
			case res.err != nil && errors.Is(ctx.Err(), context.Canceled):
				// The caller gave up mid-send (a client went away, a sweep
				// was cancelled): no verdict on the backend. Counting it
				// would let a burst of cancelled polls open a healthy
				// backend's breaker and refuse the cancels that follow.
				b.breaker.Cancel()
				return last, ctx.Err()
			default: // transport error or 5xx
				b.breaker.Record(false)
				b.errors.Add(1)
				f.metrics.backendFailures.Add(1)
				if err := f.sleep(ctx, f.backoff(sends)); err != nil {
					return last, err
				}
			}
			if ctx.Err() != nil {
				return last, ctx.Err()
			}
		}
		if !admitted {
			return last, ErrNoBackends
		}
		if retryAfter > 0 && sends < f.opts.MaxAttempts {
			if err := f.sleep(ctx, min(retryAfter, retryAfterCap)); err != nil {
				return last, err
			}
			retryAfter = 0
		}
	}
	return last, ErrExhausted
}

// backoff returns the jittered capped exponential delay before retry n
// (n counts completed sends, so the first retry waits ~BaseBackoff).
func (f *Fleet) backoff(n int) time.Duration {
	d := f.opts.BaseBackoff << uint(n-1)
	if d > f.opts.MaxBackoff || d <= 0 {
		d = f.opts.MaxBackoff
	}
	jitter := 0.5 + 0.5*rand.Float64() // [0.5, 1.0): full jitter, never zero
	return time.Duration(float64(d) * jitter)
}

// parseRetryAfter reads a Retry-After header in delay-seconds form,
// falling back to def when absent or unparsable.
func parseRetryAfter(h http.Header, def time.Duration) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return def
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return def
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// healthLoop probes every backend's /healthz on the configured interval.
// A failed probe counts as a breaker failure (proactively tripping dead
// backends before user traffic does); a successful probe is the half-open
// re-admission path for a recovered backend.
func (f *Fleet) healthLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.opts.HealthInterval)
	defer tick.Stop()
	for {
		f.probeAll()
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
	}
}

func (f *Fleet) probeAll() {
	for _, b := range f.Backends() {
		if b.removed.Load() {
			continue // left the ring: rebalance source only, never probed
		}
		// Detect a fresh breaker-open transition before the Allow gate (an
		// open breaker refuses Allow, which would hide the transition). A
		// member whose breaker just opened has jobs stuck behind it until it
		// recovers — kick one rebalance pass to move them to live owners.
		open := b.breaker.State() == BreakerOpen
		if open && !b.wasOpen.Swap(true) {
			f.goRebalance()
		}
		if !open {
			b.wasOpen.Store(false)
		}
		if !b.breaker.Allow() {
			continue // open and cooling down: skip until half-open
		}
		ok, err := f.probe(b)
		b.breaker.Record(ok)
		b.healthy.Store(ok)
		if err != nil {
			b.healthErr.Store(err.Error())
		} else {
			b.healthErr.Store("")
		}
		f.metrics.healthProbes.Add(1)
		if !ok {
			f.metrics.healthFailures.Add(1)
		}
	}
}

func (f *Fleet) probe(b *Backend) (bool, error) {
	timeout := f.opts.HealthInterval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res := f.send(ctx, b, http.MethodGet, "/healthz", nil)
	if res.err != nil {
		return false, res.err
	}
	if res.status != http.StatusOK {
		return false, fmt.Errorf("healthz status %d", res.status)
	}
	return true, nil
}
