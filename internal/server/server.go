// Package server implements gcserved, the HTTP/JSON simulation-serving
// subsystem. It turns the one-shot simulator library into a long-running
// service with the same contention discipline the paper applies to GC
// synchronization: the uncontended path is free (cache hits bypass the
// queue entirely), contention is bounded (one pool of Workers runners over
// one job manager, internal/jobs, whose queue of synchronously awaited
// jobs is bounded, with 429 backpressure instead of unbounded queueing),
// and every stall is accounted for (queue depth, rejections, timeouts and
// latency percentiles on /metrics). Every collect, sweep point and batch
// point that misses the cache runs as a job of that manager, so two
// concurrent misses for one key run one simulation.
//
// Endpoints:
//
//	POST /v1/collect   run one collection (named benchmark or inline plan)
//	POST /v1/sweep     run a Fig. 5-style core-count sweep as its collect points
//	POST /v1/batch     run a list of collect/sweep items, per-item results
//	GET  /v1/workloads list benchmark workloads and baselines
//	GET  /healthz      liveness + pool state
//	GET  /metrics      Prometheus text-format counters
//
// With Options.JobsDir set, the manager is durable (a WAL in that
// directory) and the async job tier is mounted as well:
//
//	POST   /v1/jobs                  submit a collect job (202 + job info)
//	GET    /v1/jobs                  list jobs (?active=true for non-terminal only)
//	GET    /v1/jobs/{id}             job status
//	GET    /v1/jobs/{id}/result      final result body (202 until done)
//	GET    /v1/jobs/{id}/events      lifecycle events as a Server-Sent-Events stream
//	DELETE /v1/jobs/{id}             cancel (at the next slice boundary)
//	DELETE /v1/jobs/{id}/checkpoint  release the job here as migrated
//
// The release endpoint is the fleet's half of a job move: the fleet
// resubmits the job to its new owner, then releases it here, and a request
// still waiting for it here gets a 503 that the fleet retries on the new
// owner. The path keeps its older name.
//
// The sweep engine (internal/sweep) also rides the job tier:
//
//	POST   /v1/sweeps               submit a SweepSpace (202 + sweep info)
//	GET    /v1/sweeps/{id}          progress + current ranked frontier
//	GET    /v1/sweeps/{id}/events   per-point completions and frontier updates (SSE)
//	DELETE /v1/sweeps/{id}          cancel outstanding points
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/frontdoor"
	"hwgc/internal/jobs"
	"hwgc/internal/sweep"
)

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Workers is the number of job runners (default GOMAXPROCS): the one
	// pool that runs synchronous collects, /v1/sweep and /v1/batch points
	// and async jobs alike.
	Workers int
	// QueueDepth bounds the queued jobs that have a synchronous waiter
	// (default 64). A collect miss beyond it gets 429 + Retry-After. Async
	// jobs and /v1/sweeps points are not bounded by it.
	QueueDepth int
	// CacheEntries / CacheBytes bound the content-addressed result cache
	// (defaults 1024 entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// Timeout is the per-request deadline covering queue wait and
	// simulation time (default 60s). A simulation that has already started
	// when the deadline fires runs to completion (the result is cached),
	// but the waiting client gets 504; a job still queued when its last
	// waiter gives up is withdrawn, unless it holds a preempted collection
	// or the server is draining with JobsDir.
	Timeout time.Duration
	// MaxScale rejects requests whose Scale exceeds it (default 64;
	// negative means unlimited) so one request cannot occupy a worker for
	// arbitrarily long.
	MaxScale int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// SliceCycles is the slice length, in simulated clock cycles, of every
	// collection the job tier runs: the boundaries where a job can be
	// cancelled, yield to higher-priority work or stop for Shutdown
	// (default 200000). Tests shorten it.
	SliceCycles int64
	// JobsDir, when set, makes the job manager durable and mounts the
	// async job tier (/v1/jobs, /v1/sweeps): a write-ahead log lives in
	// this directory, and a restarted server re-runs unfinished jobs from
	// it, synchronous collects included. A synchronous collect is then
	// stopped at a slice boundary by Shutdown and re-runs after a restart.
	JobsDir string
	// JobClasses is the priority-class specification ("name:weight,...")
	// for async jobs (default jobs.DefaultClasses; only meaningful with
	// JobsDir). Synchronous collects run in the first class.
	JobClasses string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	// <= 0, not == 0: a negative setting is a misconfiguration, not a
	// request for an unbounded (or disabled) cache, and must normalize to
	// the default exactly like the other knobs above.
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.MaxScale == 0 {
		o.MaxScale = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Server is the simulation-serving subsystem: HTTP handlers in front of a
// result cache and one job manager, with metrics.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *Cache
	mux     *http.ServeMux

	// draining is closed when Shutdown begins.
	draining chan struct{}

	// jobs is the job manager: the one queue and runner pool every
	// collect runs on. Durable when Options.JobsDir is set.
	jobs *jobs.Manager

	// sweeps is the parameter-space exploration coordinator, non-nil when
	// JobsDir is set. Sweep state rides the jobs WAL.
	sweeps *sweep.Coordinator

	stopOnce sync.Once
}

// New creates a Server and starts its job runners. It fails when the job
// classes do not parse or, with JobsDir set, when the jobs directory
// cannot be opened (unreadable directory, corrupt WAL).
func New(opts Options) (*Server, error) { return newServer(opts, nil) }

// newServer is New with the job manager's test seam: a non-nil run
// replaces every simulation (jobs.Options.Run).
func newServer(opts Options, run func(hwgc.CollectRequest) ([]byte, error)) (*Server, error) {
	s := &Server{
		opts:     opts.withDefaults(),
		draining: make(chan struct{}),
	}
	s.cache = NewCache(s.opts.CacheEntries, s.opts.CacheBytes)
	classes, err := jobs.ParseClasses(s.opts.JobClasses)
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.Open(jobs.Options{
		Dir:         s.opts.JobsDir,
		Classes:     classes,
		Runners:     s.opts.Workers,
		QueueDepth:  s.opts.QueueDepth,
		SliceCycles: s.opts.SliceCycles,
		OnResult:    s.onJobResult,
		Run:         run,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	s.metrics = NewMetrics(mgr, s.cache)
	// A sync request runs its collect points through execute, at most
	// Workers at a time: a sweep or batch takes at most Workers queue
	// slots however many points it has.
	door := &frontdoor.Door{
		RunPoint:     s.execute,
		WriteFailure: s.writeFailure,
		ItemStatus:   s.executeStatus,
		Admit:        func(req *hwgc.CollectRequest) error { return s.checkScale(req.Scale) },
		Bound:        s.opts.Workers,
		Timeout:      s.opts.Timeout,
		OnBatch: func(resp *hwgc.BatchResponse) {
			s.metrics.batchItems.Add(int64(len(resp.Items)))
			s.metrics.batchFailed.Add(int64(resp.Failed))
		},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/collect", s.instrument("/v1/collect", true, door.Collect))
	s.mux.HandleFunc("/v1/sweep", s.instrument("/v1/sweep", true, door.Sweep))
	s.mux.HandleFunc("/v1/batch", s.instrument("/v1/batch", true, door.Batch))
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if s.opts.JobsDir != "" {
		s.mux.HandleFunc("/v1/jobs", s.handleJobs)
		s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
		// The sweep coordinator plans spaces into collect jobs and dedupes
		// points against the same result cache the job tier feeds.
		coord := sweep.New(sweep.NewJobsRunner(mgr, s.cache.Get))
		if err := coord.Recover(); err != nil {
			return nil, err
		}
		s.sweeps = coord
		sweeps := &frontdoor.Sweeps{
			Coord: coord,
			Admit: s.admitSweep,
			Stop:  s.draining,
			Route: func(route string, h http.HandlerFunc) http.HandlerFunc {
				return s.instrument(route, false, h)
			},
		}
		s.mux.HandleFunc("/v1/sweeps", s.instrument("/v1/sweeps", false, sweeps.Submit))
		s.mux.HandleFunc("/v1/sweeps/", sweeps.ByID)
	}
	return s, nil
}

// Start is a no-op: New starts the job runners. It remains for callers
// written against the earlier two-step start.
func (s *Server) Start() {}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the size of the runner pool (after defaulting).
func (s *Server) Workers() int { return s.opts.Workers }

// Cache exposes the result cache (for tests).
func (s *Server) Cache() *Cache { return s.cache }

// Jobs exposes the job manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Sweeps exposes the sweep coordinator (nil when JobsDir is unset).
func (s *Server) Sweeps() *sweep.Coordinator { return s.sweeps }

// Shutdown drains gracefully: admission stops (new collects get 503) and
// the job manager drains. Without JobsDir, every admitted job runs to
// completion and its waiting requests get their results. With JobsDir,
// no queued job is started any more and a running one stops at its next
// slice boundary, so the drain waits for at most one slice (SliceCycles
// simulated cycles) per runner; both stay durably in the WAL, their
// waiting requests get 503 (jobs.ErrPreempted), and the next server on the
// same JobsDir re-runs them. It returns nil once the pool has drained, or
// an error wrapping ctx.Err() if ctx expires first (the runners keep
// draining in the background in that case). Shutdown may be called again.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.draining) })
	// Stop the sweep watchers before draining the job tier they watch;
	// in-flight sweeps stay durable in the WAL and resume on the next Open.
	if s.sweeps != nil {
		s.sweeps.Close()
	}
	if err := s.jobs.Drain(ctx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}
