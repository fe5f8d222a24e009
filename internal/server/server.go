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
// With Options.JobsDir set, the manager is durable (a WAL and checkpoint
// files in that directory) and the async job tier is mounted as well:
//
//	POST   /v1/jobs              submit a collect job (202 + job info)
//	GET    /v1/jobs              list jobs (?active=true for non-terminal only)
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  final result body (202 until done)
//	GET    /v1/jobs/{id}/events  lifecycle events as a Server-Sent-Events stream
//	DELETE /v1/jobs/{id}         cancel (at the next checkpoint boundary)
//
// The checkpoint-transfer endpoints make jobs portable between backends —
// the primitive behind the elastic fleet tier's live migration:
//
//	GET    /v1/jobs/{id}/checkpoint  export the job's position as an envelope
//	PUT    /v1/jobs/{id}/checkpoint  adopt a foreign envelope (idempotent by key)
//	DELETE /v1/jobs/{id}/checkpoint  release the job here as migrated
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
	// waiter gives up is withdrawn, unless it has a checkpoint or the
	// server is draining with JobsDir.
	Timeout time.Duration
	// MaxScale rejects requests whose Scale exceeds it (default 64;
	// negative means unlimited) so one request cannot occupy a worker for
	// arbitrarily long.
	MaxScale int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// CheckpointCycles is the snapshot interval, in simulated clock cycles,
	// of every collection the job tier runs, synchronous collects included
	// (default 200000; only meaningful with JobsDir).
	CheckpointCycles int64
	// JobsDir, when set, makes the job manager durable and mounts the
	// async job tier (/v1/jobs, /v1/sweeps): a write-ahead log and
	// checkpoint files live in this directory, and a restarted server
	// resumes unfinished jobs from it, synchronous collects included. A
	// synchronous collect is then preempted at a checkpoint boundary by
	// Shutdown and resumes after a restart.
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
	if o.CheckpointCycles <= 0 {
		o.CheckpointCycles = 200_000
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
		Dir:              s.opts.JobsDir,
		Classes:          classes,
		Runners:          s.opts.Workers,
		QueueDepth:       s.opts.QueueDepth,
		CheckpointCycles: s.opts.CheckpointCycles,
		OnResult:         s.onJobResult,
		Run:              run,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	s.metrics = NewMetrics(mgr, s.cache)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/collect", s.handleCollect)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
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
		s.mux.HandleFunc("/v1/sweeps", s.handleSweeps)
		s.mux.HandleFunc("/v1/sweeps/", s.handleSweepByID)
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
// checkpoint boundary, so the drain waits for at most one checkpoint
// interval (CheckpointCycles simulated cycles) per runner; both stay
// durably in the WAL, their waiting requests get 503 (jobs.ErrPreempted),
// and the next server on the same JobsDir finishes them. It returns nil
// once the pool has drained, or an error wrapping ctx.Err() if ctx expires
// first (the runners keep draining in the background in that case).
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
